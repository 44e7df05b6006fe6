"""The level-growth survey's record and the work it does."""

import pytest

from treelat.localaction import local_group
from treelat.survey import enumerate_complete_data, survey_level_growth
from treelat.vhcomplex import HORIZONTAL, VERTICAL, Alphabet

# the three fixed-point-free involutions on 4 letters; they are conjugate,
# so each survey is a relabelling of the others
FPF_INVOLUTIONS_4 = [(1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]

T4X4_RECORD = {
    "total": 1564,
    "nontrivial_p1": 1563,
    "growth_count": 616,
    "any_growth": True,
    "max_p1_order": 24,
    "max_p2_order": 648,
    "p1_orders_seen": [1, 2, 4, 8, 12, 24],
}


@pytest.mark.parametrize("involution", FPF_INVOLUTIONS_4)
def test_t4x4_survey_record(involution):
    a4 = Alphabet(size=4, involution=involution)
    assert survey_level_growth(a4, a4).to_json() == T4X4_RECORD


def test_one_chain_per_distinct_generator_set(chain_builds):
    a4 = Alphabet.with_adjacent_pairs(4)
    generator_sets = {frozenset(local_group(d, side, k).generators)
                      for d in enumerate_complete_data(a4, a4)
                      for side in (HORIZONTAL, VERTICAL) for k in (1, 2)}
    assert len(generator_sets) == 135
    survey_level_growth(a4, a4)
    assert len(chain_builds) == len(generator_sets)
