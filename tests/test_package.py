"""The package's lazy exports, its immutable records and its source's
Python floor."""

import ast
import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import dualweyl
from dualweyl.garnir import GarnirLabel
from dualweyl.gfp import Subspace
from dualweyl.partitions import Partition
from dualweyl.quotients import (
    QuotientModule,
    _Block,
    _Layout,
    _Pattern,
    build_dual_weyl,
    build_gtensor_specht,
)
from dualweyl.records import FrozenRecordError
from dualweyl.tableaux import Tableau
from dualweyl.tabloids import (
    ALT_COLUMN,
    SignedTabloid,
    TabloidBasis,
    TabloidVector,
    build_basis,
)

SRC = Path(__file__).resolve().parent.parent / "src"

# The names the package exports, by the submodule that defines each.
EXPORTS = {
    "partitions": [
        "InvariantError", "Partition", "count_syt", "dominates",
        "hook_content_dim", "min_odd_binomial_index", "parse_partition",
        "partitions_of",
    ],
    "tableaux": ["Tableau", "TableauClass", "enumerate_tableaux"],
    "tabloids": [
        "ALT_COLUMN", "SignedTabloid", "TabloidBasis", "TabloidVector",
        "build_basis", "canonicalize", "skew_column",
    ],
    "garnir": ["GarnirLabel", "RelationKind"],
    "quotients": [
        "QuotientModule", "apply_transvection", "build_dual_weyl",
        "build_gtensor_specht", "module_dim", "straighten",
        "u_lambda_dim", "u_lambda_weight_table", "verify_iso",
    ],
    "predictions": [
        "D1Result", "d1_predict", "frobenius_weight_check", "hook_d2_dim",
        "predict_iso", "table1_weight_counts",
    ],
    "decomposition": [
        "composition_factors_U", "decomposition_rows", "dim_simple",
        "nabla_filtration_feasible", "simple_dims",
    ],
}


def test_sources_parse_as_python_3_10():
    # pyproject.toml and the README promise Python 3.10+: no module may use
    # grammar that a 3.10 parser rejects, whatever Python runs the tests.
    paths = sorted((SRC / "dualweyl").glob("*.py"))
    assert len(paths) >= 12
    for path in paths:
        ast.parse(path.read_text(), filename=str(path), feature_version=(3, 10))


def test_lazy_exports_are_the_submodules_objects():
    import importlib

    assert sorted(dualweyl.__all__) == sorted(n for ns in EXPORTS.values() for n in ns)
    for module, names in EXPORTS.items():
        source = importlib.import_module(f"dualweyl.{module}")
        for name in names:
            assert getattr(dualweyl, name) is getattr(source, name), name
    assert set(dualweyl.__all__) <= set(dir(dualweyl))


def test_star_import_and_unknown_names():
    namespace = {}
    exec("from dualweyl import *", namespace)
    assert set(dualweyl.__all__) <= set(namespace)
    assert namespace["build_dual_weyl"] is build_dual_weyl
    with pytest.raises(AttributeError, match="no_such_name"):
        dualweyl.no_such_name
    with pytest.raises(ImportError):
        exec("from dualweyl import no_such_name", {})


def test_import_loads_no_submodule():
    # Each export loads its submodule on first use, and the submodules
    # stay reachable as attributes of the package.
    code = (
        "import sys, dualweyl; "
        "print(sorted(m for m in sys.modules if m.startswith('dualweyl.'))); "
        "dualweyl.hook_content_dim; "
        "print(sorted(m for m in sys.modules if m.startswith('dualweyl.'))); "
        "print(dualweyl.quotients.__name__)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=str(SRC)), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "[]", "['dualweyl.partitions']", "dualweyl.quotients", ""
    ]


def _records():
    """One of each record, a twin built from equal fields, and whether
    the record hashes (None: it compares by identity)."""
    shape = Partition((2, 1))
    basis = build_basis(shape, 3, ALT_COLUMN)
    t = basis.rep(0)
    module = build_dual_weyl(shape, 3, 3)
    layout = module._layout
    block = layout.order[0]
    spans = dict(module._spans)
    span = spans[block.key]
    skew = build_gtensor_specht(shape, 3, 2)._spans
    mod2 = next(s for s in skew.values() if s.q.dim)
    q, twin_q = mod2.q, Subspace(mod2.q.ambient_dim, dict(mod2.q._piv))
    label = (t, ((1, 1), (2, 1)), ((1, 2),))
    return [
        (SignedTabloid(t, -1), SignedTabloid(Tableau(t.cols), -1), True),
        (
            basis,
            TabloidBasis(basis.kind, shape, 3, basis.cols[:1]),
            True,
        ),
        (TabloidVector(basis, 3, {0: 1}), TabloidVector(basis, 3, {0: 1}), False),
        (GarnirLabel(*label), GarnirLabel(*label), True),
        (block, _Block(block.indices, block.key), True),
        (layout, _Layout(basis, dict(layout.blocks)), True),
        (span, _Pattern(*(getattr(span, f) for f in span.__slots__)), True),
        (mod2, _Pattern(mod2.r_pos, mod2.images, twin_q, mod2.free), True),
        (q, twin_q, True),
        (module, QuotientModule(layout, 3, spans), None),
    ]


def test_records_refuse_assignment_and_deletion():
    for record, _, _ in _records():
        for field in type(record).__slots__:
            value = getattr(record, field)
            with pytest.raises(FrozenRecordError):
                setattr(record, field, value)
            with pytest.raises(FrozenRecordError):
                delattr(record, field)
            with pytest.raises(AttributeError):
                setattr(record, "extra", value)
            assert getattr(record, field) is value


def test_records_compare_as_the_dataclasses_did():
    # Equal fields make equal records, but the basis listing and a layout's
    # blocks and index are not compared, a vector (a dict field) is
    # unhashable, and a module is equal only to itself.
    for record, twin, hashable in _records():
        assert record == record and not record != record
        assert record != object()
        if hashable is None:
            assert record != twin and hash(record) != hash(twin)
            continue
        assert record == twin
        if hashable:
            assert hash(record) == hash(twin)
        else:
            with pytest.raises(TypeError):
                hash(record)
    tabloid, _, _ = _records()[0]
    assert tabloid != SignedTabloid(tabloid.rep, 1)
    assert tabloid != SignedTabloid(tabloid.rep, -1, True)
    assert SignedTabloid(tabloid.rep, -1).is_zero is False


def test_records_copy_and_show_their_fields():
    # A pickled or deep-copied hashable record equals its original and
    # hashes as it does: a mod-2 pattern and its frozen span too, whose
    # reduced echelon rows are canonical.
    for record, _, hashable in _records():
        if hashable:
            for twin in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
                assert twin == record and hash(twin) == hash(record), record
    tabloid, _, _ = _records()[0]
    assert copy.copy(tabloid) == tabloid
    assert pickle.loads(pickle.dumps(tabloid)) == tabloid
    assert repr(tabloid) == f"SignedTabloid(rep={tabloid.rep!r}, sign=-1, is_zero=False)"
    basis = _records()[1][0]
    assert "index" not in repr(basis) and repr(basis).startswith("TabloidBasis(kind=")
    module = _records()[-1][0]
    assert repr(module) == f"QuotientModule(ambient={module.ambient!r}, p=3)"
    # A basis, a vector and a module pickle, and a module copies, rebuilding
    # the basis listing and the layout's coordinate index from what they hold.
    for twin in (pickle.loads(pickle.dumps(basis)), copy.copy(basis)):
        assert twin == basis and twin.cols == basis.cols
    vector = _records()[2][0]
    assert pickle.loads(pickle.dumps(vector)) == vector
    probes = [{0: 1}, {1: 2, 4: 1}, {i: i + 1 for i in range(basis.dim)}]
    for twin in (pickle.loads(pickle.dumps(module)), copy.copy(module)):
        assert repr(twin) == repr(module)
        for coords in probes:
            ours = module.reduce(TabloidVector(module.ambient, 3, coords))
            theirs = twin.reduce(TabloidVector(twin.ambient, 3, coords))
            assert theirs.coords == ours.coords
            # a vector over the original basis reads in the twin, whose
            # basis is equal to it (the same object only in a copy)
            vec = TabloidVector(module.ambient, 3, coords)
            assert twin.reduce(vec).coords == ours.coords
            assert twin.relations_contain(vec) == module.relations_contain(vec)
            assert vec.add(theirs).coords == vec.add(ours).coords
    other = TabloidVector(build_basis(Partition((2, 1)), 4, ALT_COLUMN), 3, {0: 1})
    with pytest.raises(ValueError, match="different basis"):
        module.reduce(other)
