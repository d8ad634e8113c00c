"""Permutation statistics from antisymmetric matrices, their
exchangeable pair under the move-random-to-end chain, exact
distributions, and normal-approximation bounds.

``perm_core`` is imported with the package.  The other modules, and
numpy, are put in ``sys.modules`` as lazy modules (:func:`lazy_module`)
that run on their first attribute access, so a command runs only the
modules it uses: the recurrences and ``--help`` never run ``_sn`` or
numpy.  A missing numpy still fails on import.  The public names below
resolve through ``__getattr__``.
"""

import importlib.util
import sys

from . import perm_core


def lazy_module(name: str):
    """The module ``name`` as it is in ``sys.modules``, loaded or not, or else
    one put there that ``importlib.util.LazyLoader`` executes on its first
    attribute access.  A module that cannot be found raises
    ModuleNotFoundError here."""
    if sys.modules.get(name) is not None:
        return sys.modules[name]  # an import would run a lazy one
    spec = importlib.util.find_spec(name)
    if spec is None:
        raise ModuleNotFoundError(f"No module named {name!r}", name=name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


lazy_module("numpy")  # found now, so that a missing numpy fails on import
for _module in ("_sn", "analysis", "chain", "exact_dist", "exchangeability", "stein_bounds"):
    globals()[_module] = lazy_module(f"{__name__}.{_module}")
del _module

# every public name and the module that defines it
_HOME = {
    name: module
    for module, names in [
        ("analysis", "RateRow kolmogorov_distance normal_cdf rate_table"),
        ("chain", "PairSample move_to_end sample_pair unit_step_check x_delta"),
        (
            "exact_dist",
            "IntegerDistribution StandardizedDistribution brute_force_moments eulerian_distribution "
            "exact_moments generic_distribution mahonian_distribution standardize",
        ),
        (
            "exchangeability",
            "PairDistribution builtin_phi check_conditions is_exchangeable joint_distribution "
            "lambda_map phi theta",
        ),
        (
            "perm_core",
            "AntisymmetricMatrix EnumerationLimitError MatrixFormatError Permutation StatisticKind "
            "StatisticSpec VarianceBreakdown custom_spec descent_count "
            "descents_matrix descents_spec identity inverse inversion_count inversions_matrix "
            "inversions_spec load_matrix_file matrix_from_json_dict matrix_to_json_dict "
            "random_antisymmetric_matrix spec_for variance_formula x_stat zero_matrix",
        ),
        (
            "stein_bounds",
            "BoundIngredients BoundReport ScalingRow a_max bound_report ingredients_exact "
            "ingredients_mc rr_bound scaling_table stein_original_bound",
        ),
    ]
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name: str):
    """A public name, read from its module, which runs on the first read."""
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(globals()[_HOME[name]], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
