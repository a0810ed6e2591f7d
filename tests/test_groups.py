import hashlib
import json
import re

import numpy as np
import pytest

from sdpke.errors import ParameterError
from sdpke.groups import (
    BUNDLED_GROUPS,
    FiniteGroupTable,
    alternating_group,
    cyclic_group,
    load_group,
    symmetric_group,
)


def test_bundled_tables_load_and_validate():
    orders = {"c2": 2, "s3": 6, "a4": 12, "a5": 60}
    for name in BUNDLED_GROUPS:
        table = load_group(name)
        assert table.order == orders[name]
        table.validate()


def test_bundled_tables_match_builders():
    assert load_group("c2") == cyclic_group(2)
    assert load_group("s3") == symmetric_group(3)
    assert load_group("a4") == alternating_group(4)
    assert load_group("a5") == alternating_group(5)


def test_bundled_tables_keep_their_element_order():
    # sha256 of each bundled product table, pinned so that a transcript naming the
    # group keeps meaning the same elements in the same order
    digests = {
        "c2": "c1b92cfd1182059c03f2934cec0ee71e1df9f08ff9f53dec0f3e468e62a0626c",
        "s3": "d306f7f3933e7339e6cfd86bc9d637c347c4fd56cdc2c0627eb667787b141aac",
        "a4": "1bfa34a13a10db6df271e23e0a887888b25219ce6befa358fe5292d170454cc5",
        "a5": "ccb59d4a1a47ccd48479846533320454b1fa44b9effe02f0da06a2b9ead2ebab",
    }
    for name, digest in digests.items():
        product = json.dumps(load_group(name).product.tolist()).encode()
        assert hashlib.sha256(product).hexdigest() == digest, name


def test_load_group_builds_each_group_once():
    assert load_group("s3") is load_group("s3")


def test_unknown_bundled_name_rejected():
    with pytest.raises(ParameterError):
        load_group("q8")


def test_identity_and_inverse_consistency():
    s3 = load_group("s3")
    e = s3.identity
    for i in range(s3.order):
        assert s3.mul(e, i) == i
        assert s3.mul(i, e) == i
        assert s3.mul(i, int(s3.inverse[i])) == e


def test_non_associative_table_rejected():
    # mangle one entry of c4; associativity sweep must catch it
    bad = np.array(cyclic_group(4).product, copy=True)
    bad[3, 3] = 3  # should be 2
    with pytest.raises(ParameterError, match="associative"):
        FiniteGroupTable(bad)


def test_table_without_identity_rejected():
    with pytest.raises(ParameterError, match="identity"):
        FiniteGroupTable([[1, 1], [1, 1]])


def test_json_round_trip():
    s3 = load_group("s3")
    again = FiniteGroupTable.from_obj(json.loads(json.dumps(s3.to_obj())), name="s3")
    assert again == s3


def test_malformed_json_rejected():
    with pytest.raises(ParameterError, match="missing field"):
        FiniteGroupTable.from_obj({"order": 2})
    with pytest.raises(ParameterError, match="square"):
        FiniteGroupTable.from_obj({"order": 2, "product": [0, 1], "identity": 0, "inverse": [0, 1]})

    # np.asarray(..., dtype=np.int64) truncated 0.5 to 0 and read "0" as 0, so these loaded as c5
    cases = [("product", v) for v in (0.5, 0.0, False, "0")] + [("inverse", v) for v in (0.5, 0.0, False, "0")]
    for field, value in cases + [("identity", 0.0), ("identity", False), ("order", 5.0)]:
        obj = cyclic_group(5).to_obj()
        if field == "product":
            obj["product"][0][0] = value
        elif field == "inverse":
            obj["inverse"][0] = value
        else:
            obj[field] = value
        with pytest.raises(ParameterError, match=re.escape(f"group table {field} holds {value!r}, not an integer")):
            FiniteGroupTable.from_obj(obj)


def test_inconsistent_declared_fields_rejected():
    obj = cyclic_group(2).to_obj()
    obj["identity"] = 1
    with pytest.raises(ParameterError, match="identity"):
        FiniteGroupTable.from_obj(obj)
    obj = cyclic_group(2).to_obj()
    obj["inverse"] = [1, 0]
    with pytest.raises(ParameterError, match="inverse"):
        FiniteGroupTable.from_obj(obj)
