"""The package's public names are the library modules' ``__all__`` lists, stated once."""

import importlib

import pytest

import qiglab
from qiglab.manifold import ParametrizedFamily

MODULES = (
    "linalg",
    "sampling",
    "manifold",
    "metrics",
    "monotonicity",
    "consistency",
    "connections",
    "bands",
    "duality",
    "newton",
    "potential",
    "gibbs",
)

# Removed for having no caller outside their own tests; the README's
# "Library usage" gives a one-line replacement for each.
REMOVED = {
    "commutator",
    "schatten_norm",
    "alpha_embed",
    "identity_channel",
    "von_neumann_entropy",
    "parallel_transport_ext",
    "embedding_trace_identity_gap",
    "family_tangent",
    "SECOND_DERIVATIVE_STEP",
    "DEGENERACY_RTOL",
    "hs_inner",
    "potential_value",
    "UniquenessScanResult",
    "CovariantDerivativeResult",
}

# Chart-contract fields replaced by another; the README's "Removed" table names the replacement.
REMOVED_FAMILY_FIELDS = {
    "hessian",
    "has_analytic_second_order",
    "chart",
    "jacobian",
    "tangent_matrix",
}


def test_package_exports_the_module_lists_once():
    names = [n for m in MODULES for n in importlib.import_module(f"qiglab.{m}").__all__]
    assert qiglab.__all__ == names
    assert len(set(names)) == len(names)


def test_every_exported_name_resolves():
    for name in qiglab.__all__:
        assert hasattr(qiglab, name), name


def test_removed_names_are_not_exported():
    for m in MODULES:
        module = importlib.import_module(f"qiglab.{m}")
        assert REMOVED.isdisjoint(module.__all__), m
        assert not any(hasattr(module, name) for name in REMOVED), m
    assert REMOVED.isdisjoint(qiglab.__all__)
    assert not any(hasattr(qiglab, name) for name in REMOVED)


def _column(t):
    return t[..., None]


def _column_jet(t, order):
    return _column(t), None, None, None


def test_removed_chart_fields_are_gone():
    family = ParametrizedFamily(1, evaluate=_column_jet)
    for name in REMOVED_FAMILY_FIELDS:
        assert not hasattr(ParametrizedFamily, name), name
        assert not hasattr(family, name), name


def test_a_chart_without_derivatives_is_rejected_at_construction():
    # every consumer takes the chart's derivatives from its jet, so the evaluator may not be
    # missing, and separate value and derivative callables are no chart
    with pytest.raises(TypeError, match="evaluate"):
        ParametrizedFamily(1)
    with pytest.raises(TypeError, match="chart"):
        ParametrizedFamily(1, chart=_column, jacobian=_column, hessians=_column)
