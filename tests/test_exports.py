import ast
import inspect
import re
from pathlib import Path

import qpwalk

PACKAGE = Path(qpwalk.__file__).parent
README = Path(__file__).resolve().parent.parent / "README.md"

# the public surface: one entry point per quantity
PUBLIC_NAMES = [
    "ContinuedFraction", "Convergent", "Field", "FieldClassification", "GaugePhase",
    "NoiseConfig", "RevivalReport", "TimeRule", "WalkParams", "WalkState", "__version__",
    "alpha_tilde", "alpha_tilde_sup", "apply_gauge",
    "approximation_check", "bloch_vector", "cf_expand", "classify_field", "dispersion",
    "eigenbasis_unitary2", "electric_evolve", "ensemble_series", "evaluate", "evolve",
    "evolve_tracking_origin", "expected_sign", "golden_ratio_fraction", "irrational_revival_bound",
    "is_unitary", "make_coin", "noise_bound", "noise_bound_for", "regrouped_block",
    "regrouped_trace", "revival_deviation", "revival_reports", "revival_time", "rotation_x",
    "support_radius", "trace_formula", "verify_gauge_equivalence",
]


def test_all_resolves_and_lists_every_public_name():
    """``qpwalk.__all__`` names only what the package binds, and all of it."""
    assert len(set(qpwalk.__all__)) == len(qpwalk.__all__)
    missing = [name for name in qpwalk.__all__ if not hasattr(qpwalk, name)]
    assert missing == []
    bound = {name for name, value in vars(qpwalk).items()
             if not name.startswith("_") and not inspect.ismodule(value)}
    assert sorted(bound - set(qpwalk.__all__)) == []


def test_all_is_pinned():
    assert sorted(qpwalk.__all__) == PUBLIC_NAMES


def _package_references() -> set[str]:
    """Every name the modules other than ``__init__.py`` read, import or look up as an attribute."""
    names = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def _readme_api_names() -> set[str]:
    """The names in the first column of the README's "Public API" table."""
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    return set(re.findall(r"^\| `(\w+)` \|", section, flags=re.MULTILINE))


def test_every_export_has_a_package_caller_or_a_readme_row():
    """An exported name is used inside the package or is a quantity the README documents."""
    documented = _readme_api_names()
    assert sorted(documented - set(qpwalk.__all__)) == []
    unused = set(qpwalk.__all__) - _package_references()
    assert sorted(unused - documented) == []
