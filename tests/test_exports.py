import ast
import types
from pathlib import Path

import aracodes
from aracodes import constructions, nonneg, powerseries, sim, tilting

ROOT = Path(__file__).resolve().parent.parent

#: Names that left the package: deleted, or moved into tests/oracles.py.  The
#: catalog builds every family through ``build_catalog_pair``.
GONE = {
    tilting: ["tilt_node", "tilt_edge", "TiltedPair", "puncture", "PunctureResult", "de_iterate", "DEState"],
    constructions: [
        "cmk_table", "CmkTable", "self_matched_coeffs_recursion",
        "AsymptoticParams", "asymptotic_coeffs", "EULER_GAMMA",
        "self_matched_nsira", "self_matched_aldpc", "bit_regular_ara", "check_regular_ara",
        "nsira_bit_regular", "aldpc_bit_regular", "nsira_check_regular", "aldpc_check_regular",
        "_check_regular_image", "VERIFY_SCALES", "VERIFY_CUBIC", "VERIFY_BITREG",
        "matched_cubic_edge_series", "solve_check_from_bit", "CheckSideSolution",
    ],
    nonneg: ["verify_bitreg_ara", "verify_checkreg_nsira", "self_matched_condition"],
    powerseries: ["binomial_series", "t_operator", "truncate_check", "truncate_bit"],
    sim: ["make_puncture_mask"],
}


def test_every_exported_name_exists_and_none_is_a_module():
    assert len(aracodes.__all__) == len(set(aracodes.__all__))
    for name in aracodes.__all__:
        assert hasattr(aracodes, name), name
        assert not isinstance(getattr(aracodes, name), types.ModuleType), name


def test_star_import_binds_exactly_the_export_list():
    namespace = {}
    exec("from aracodes import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(aracodes.__all__)


def test_deleted_and_moved_names_are_gone():
    for module, names in GONE.items():
        for name in names:
            assert name not in aracodes.__all__, name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    for cls in (powerseries.DegreeDistribution, powerseries.DegreePair):
        assert not hasattr(cls, "tail_mass"), f"{cls.__name__}.tail_mass"


def test_every_export_has_a_caller_outside_tests():
    """Each exported name is read by the library, a script or the benchmark.

    Names and attributes are collected from the syntax tree, so a mention in
    a docstring or a comment does not count as a caller.
    """
    sources = [
        path
        for pattern in ("src/aracodes/*.py", "scripts/*.py", "perfbench/*.py")
        for path in ROOT.glob(pattern)
        if path.name != "__init__.py"
    ]
    used = set()
    for path in sources:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert [name for name in aracodes.__all__ if name not in used] == []
