"""One route per order question: the multiplicative order census read off the
log table, and is_primitive and multiplicative_order on the polynomial path
whether or not the context has its exp/log tables."""

from collections import Counter

import pytest

from pnfield.claims import enumerate_field_specs
from pnfield.counting import multiplicative_order_census
from pnfield.errors import ResourceLimitError
from pnfield.field import build_field

# odd p, p = 2, k > 1, and n = 1
ROUTE_FIELDS = [(2, 1, 1), (5, 1, 1), (2, 1, 6), (3, 1, 4), (5, 1, 2), (7, 1, 3), (2, 2, 3),
                (2, 3, 2), (3, 2, 2), (13, 1, 2)]


def test_census_off_the_log_table_equals_the_descent_on_every_field_to_2_12():
    for spec in [(2, 1, 1), (3, 1, 1)] + enumerate_field_specs(4, 4096):
        ctx = build_field(*spec)
        ctx.ensure_tables()
        before = ctx.op_count
        census = multiplicative_order_census(ctx)
        assert ctx.op_count == before  # reading the table is no field work
        assert census == Counter(ctx.multiplicative_order(a) for a in range(1, ctx.order)), spec


@pytest.mark.parametrize("spec", ROUTE_FIELDS, ids=str)
def test_cold_and_warm_contexts_agree_in_value_and_charge(spec):
    cold, warm = build_field(*spec), build_field(*spec)
    warm.ensure_tables()
    assert cold._log is None and warm._log is not None
    prim, _ = warm.class_masks()
    for name in ("is_primitive", "multiplicative_order"):
        for a in range(1, cold.order):
            charges = []
            for ctx in (cold, warm):
                before = ctx.op_count
                value = getattr(ctx, name)(a)
                charges.append((value, ctx.op_count - before))
            assert charges[0] == charges[1], (name, a)
            if name == "is_primitive":
                assert charges[0][0] == bool(prim[a]), a
    assert cold._log is None  # neither route builds the tables


def test_order_data_above_the_table_cap_raises():
    big = build_field(2, 1, 21)
    with pytest.raises(ResourceLimitError):
        multiplicative_order_census(big)
    with pytest.raises(ResourceLimitError):
        big.log_table
    # the per-element routes still run there
    assert big.multiplicative_order(1) == 1
    assert not big.is_primitive(1)
