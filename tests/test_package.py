"""The package namespace: each layer's public names, re-exported once."""

import nabladelay
from nabladelay import dpml, grid_calculus, solver

LAYERS = (dpml, grid_calculus, solver)

PUBLIC_NAMES = {
    "CommutativityError", "DelaySystem", "DivergenceError", "DpmlFunction", "DpmlParams",
    "GridRangeError", "GridSeries", "REDUCTION_PATTERNS", "ReductionPatternError",
    "SingularityError", "SolutionTrace", "TruncationPolicy", "VerifyReport", "WordSumTable",
    "closed_form_solve", "commutative_solve", "delta_solve", "dpml_eval", "forced_part",
    "homogeneous_part", "ml_eval", "ml_partial_sum", "monomial", "monomial_run", "nabla_sum",
    "rl_difference", "special_reductions", "step_solve", "verify", "word_sum_commutative",
}


def test_namespace_lists_each_layers_public_names_once():
    assert len(nabladelay.__all__) == len(set(nabladelay.__all__))
    assert set(nabladelay.__all__) == {name for layer in LAYERS for name in layer.__all__}
    assert set(nabladelay.__all__) == PUBLIC_NAMES


def test_namespace_binds_the_layers_objects():
    for layer in LAYERS:
        for name in layer.__all__:
            assert getattr(nabladelay, name) is getattr(layer, name), name
