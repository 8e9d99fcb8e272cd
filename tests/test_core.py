import math

import pytest
from hypothesis import given, strategies as st

from kohnspec.asymptotics import (
    lemma_ratio_decay,
    remainder_experiment,
    universal_constant,
    weyl_ratio_series,
)
from kohnspec.core import (
    DimensionTooSmall,
    InvalidOrder,
    InvalidWeight,
    LensSpace,
    MismatchedSpaces,
    UnsupportedDimension,
    format_lens_spec,
    gcd_invariant,
    make_lens_space,
    parse_lens_spec,
)
from kohnspec.genfunc import genfunc_series, independence_probe, max_deviation
from kohnspec.invariant import base_dim_table, dim_invariant_recurrence, mn_counts
from kohnspec.isospectral import (
    c_matrix,
    classify_all,
    d_invariant_check,
    span_dimension,
    spectra_equal_up_to,
    t_apply,
)
from kohnspec.spectrum import counting_grid_size, lens_counting, multiplicity_table
from kohnspec.sphere import dim_hpq, eigenvalue, sphere_counting


def test_valid_space_passes_through():
    space = make_lens_space(2, 5, [1, 2])
    assert space == LensSpace(n=2, k=5, weights=(1, 2))
    assert {space: 1}[LensSpace(2, 5, (1, 2))] == 1  # Hashable: spaces key memo tables.
    with pytest.raises(AttributeError):
        space.k = 7


def test_weights_reduced_mod_k():
    assert make_lens_space(2, 5, [6, -3]) == LensSpace(n=2, k=5, weights=(1, 2))


def test_coprimality_enforced():
    with pytest.raises(InvalidWeight):
        make_lens_space(2, 4, [1, 2])


def test_order_and_dimension_validation():
    with pytest.raises(InvalidOrder):
        make_lens_space(2, 0, [1, 1])
    with pytest.raises(DimensionTooSmall):
        make_lens_space(1, 5, [1])
    with pytest.raises(ValueError):
        make_lens_space(3, 5, [1, 2])


def test_k_equals_one_accepts_anything():
    assert make_lens_space(3, 1, [7, -2, 0]).weights == (0, 0, 0)


coprime_pairs = st.integers(min_value=1, max_value=50).flatmap(
    lambda k: st.tuples(
        st.just(k),
        st.lists(
            st.integers(min_value=-200, max_value=200).filter(
                lambda w, _k=k: math.gcd(w, _k) == 1
            ),
            min_size=2,
            max_size=4,
        ),
    )
)


@given(coprime_pairs)
def test_canonicalization_idempotent(kw):
    k, weights = kw
    once = make_lens_space(len(weights), k, weights)
    twice = make_lens_space(once.n, once.k, once.weights)
    assert once == twice


def test_gcd_invariant_examples():
    assert gcd_invariant(make_lens_space(2, 12, [1, 5])) == 4
    assert gcd_invariant(make_lens_space(2, 5, [1, 2])) == 1
    assert gcd_invariant(make_lens_space(2, 7, [3, 3])) == 7


def test_gcd_invariant_needs_n2():
    with pytest.raises(UnsupportedDimension):
        gcd_invariant(make_lens_space(3, 5, [1, 2, 3]))


@given(coprime_pairs.filter(lambda kw: len(kw[1]) == 2), st.integers(-3, 3), st.integers(-3, 3))
def test_gcd_invariant_divides_k_and_shift_invariant(kw, s, t):
    k, (l1, l2) = kw
    d = gcd_invariant(make_lens_space(2, k, [l1, l2]))
    assert k % d == 0
    shifted = gcd_invariant(make_lens_space(2, k, [l1 + s * k, l2 + t * k]))
    assert shifted == d


def test_text_format_round_trip():
    space = parse_lens_spec("5:1,2")
    assert space == make_lens_space(2, 5, [1, 2])
    assert format_lens_spec(space) == "5:1,2"
    assert str(parse_lens_spec("7:8,-1")) == "7:1,6"


def test_text_format_rejects_garbage():
    with pytest.raises(ValueError):
        parse_lens_spec("5;1,2")
    with pytest.raises(ValueError):
        parse_lens_spec("5:")


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=call.__name__) for call, args in [
        (make_lens_space, (1, 5, [1])),
        (dim_hpq, (1, 0, 0)),
        (eigenvalue, (1, 0, 1)),
        (sphere_counting, (1, 10)),
        (counting_grid_size, (1, 10)),
        (universal_constant, (1,)),
        (lemma_ratio_decay, (1, [4])),
    ]
])
def test_every_entry_point_refuses_n_below_2(call, args):
    with pytest.raises(DimensionTooSmall) as info:
        call(*args)
    assert str(info.value) == "dimension parameter must be >= 2, got 1"


@pytest.mark.parametrize("call, args, error, message", [
    pytest.param(call, args, error, message, id=call.__name__)
    for call, args, error, message in [
        (remainder_experiment, (make_lens_space(2, 5, [1, 2]), 3, 2), ValueError,
         "lambda_max must be at least 2*samples"),
        (independence_probe, (1, []), InvalidOrder, "group order must be >= 2, got 1"),
        (base_dim_table, (make_lens_space(3, 5, [1, 2, 3]),), UnsupportedDimension,
         "dimension parameter must be 2, got 3"),
        (spectra_equal_up_to, (make_lens_space(2, 5, [1, 2]), make_lens_space(3, 5, [1, 2, 3]),
                               10), MismatchedSpaces, "spectral comparison needs equal n"),
        (t_apply, ([[1, 2]],), ValueError, "matrix must be square"),
        (sphere_counting, (2, -2), ValueError, "cutoff must be nonnegative, got -2"),
    ]
] + [
    pytest.param(remainder_experiment, (make_lens_space(2, 5, [1, 2]), 10, 0), ValueError,
                 "need at least one sample", id="remainder_experiment-no-samples"),
])
def test_refusals(call, args, error, message):
    with pytest.raises(error) as info:
        call(*args)
    assert type(info.value) is error and str(info.value) == message


# One rule, one message: each is decided in core and every entry point calls it.
L5 = make_lens_space(2, 5, [1, 2])
L5_3D = make_lens_space(3, 5, [1, 2, 3])


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=call.__name__) for call, args in [
        (lens_counting, (L5, -2)),
        (multiplicity_table, (L5, -2)),
        (spectra_equal_up_to, (L5, make_lens_space(2, 5, [1, 3]), -2)),
        (sphere_counting, (2, -2)),
        (counting_grid_size, (2, -2)),
        (lemma_ratio_decay, (2, [4, -2])),
        (weyl_ratio_series, (L5, -2, 2)),
        (genfunc_series, (L5, 0.1, 0.1, -2)),
        (max_deviation, (L5, [(0.1, 0.1)], -2)),
    ]
])
def test_every_entry_point_refuses_a_negative_cutoff(call, args):
    with pytest.raises(ValueError) as info:
        call(*args)
    assert type(info.value) is ValueError
    assert str(info.value) == "cutoff must be nonnegative, got -2"


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=call.__name__) for call, args in [
        (c_matrix, (1, 2)),
        (span_dimension, (1, [])),
        (classify_all, (1,)),
        (independence_probe, (1, [])),
    ]
])
def test_every_entry_point_refuses_an_order_below_2(call, args):
    with pytest.raises(InvalidOrder) as info:
        call(*args)
    assert str(info.value) == "group order must be >= 2, got 1"


@pytest.mark.parametrize("call, args", [
    pytest.param(call, args, id=id_) for id_, call, args in [
        ("gcd_invariant", gcd_invariant, (L5_3D,)),
        ("mn_counts", mn_counts, (L5_3D, 1, 1)),
        ("base_dim_table", base_dim_table, (L5_3D,)),
        ("dim_invariant_recurrence", dim_invariant_recurrence, (L5_3D, 1, 1)),
        ("d_invariant_check-first", d_invariant_check, (L5_3D, L5)),
        ("d_invariant_check-second", d_invariant_check, (L5, L5_3D)),
    ]
])
def test_every_entry_point_refuses_n_other_than_2(call, args):
    with pytest.raises(UnsupportedDimension) as info:
        call(*args)
    assert str(info.value) == "dimension parameter must be 2, got 3"
