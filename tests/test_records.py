"""The records of the package: construction, immutability, equality, repr.

Every record is a typing.NamedTuple, so equality, hash and repr come
from the tuple and no class of the package writes them by hand.  A
record that checks its fields subclasses a NamedTuple base; PantsComplex
and PantsGraph subclass one without __slots__, so their cached tables
live in an instance dict while the fields stay read-only.  The
validating records refuse bad values with the messages their callers
match.
"""

import ast
import math
from pathlib import Path

import pytest

import goodpants
from goodpants.complexes import Circle, Pants, PantsComplex, PantsGraph, build_xp
from goodpants.elementwise import QiReport, ScanReport
from goodpants.geom import INFINITY, MoebiusMap, OrientedGeodesic, Point
from goodpants.holonomy import RepParams, ViableRep
from goodpants.homology import AbelianGroup, IntegerMatrix
from goodpants.pants import HalfNormalCoordinate, PantsRep
from goodpants.sweeps import SweepReport, SweepRow

_M = MoebiusMap.identity()
_X = build_xp(1, 3)
_PARAMS = RepParams(R=20.0, tau=0.5, xi=(0.1,) * 6, eta=(-0.1,) * 6)
_REP = PantsRep(gen1=_M, gen2=_M, halflengths=(10 + 0j,) * 3, frames=(_M, _M, _M))
_ROW = SweepRow(params=(("R", 10.0),), measured=0.25, bound=1.0)

# field values of one instance of each record, in field order
FIELDS = {
    Circle: {"d": 3, "k": 2},
    Pants: {"slots": (0, 1, 2), "orientations": (1, -1, 1)},
    PantsComplex: {"pants": (Pants((0, 1, 1)),), "circles": (Circle(d=2), Circle())},
    PantsGraph: {"n_vertices": 2, "edges": ((0, 0, 1),), "marked": frozenset({1})},
    IntegerMatrix: {"entries": ((1, 2), (3, 4))},
    AbelianGroup: {"rank": 1, "torsion": (2, 4)},
    OrientedGeodesic: {"source": 0j, "target": INFINITY},
    Point: {"horizontal": 1j, "height": 2.0},
    HalfNormalCoordinate: {"value": 0.5 + 1j, "hl": 2 + 0j},
    PantsRep: {"gen1": _M, "gen2": _M, "halflengths": (10 + 0j,) * 3, "frames": (_M, _M, _M)},
    RepParams: {"R": 20.0, "tau": 0.5, "xi": (0.1, -0.05), "eta": (0.0, 0.02)},
    ViableRep: {
        "complex": _X,
        "params": _PARAMS,
        "conjugators": (_M,) * 4,
        "base_reps": (_REP,) * 4,
        "measure_frames": {},
        "singular_base": {},
    },
    QiReport: {
        "R": 20.0,
        "p": 3,
        "samples": 10,
        "violations": 0,
        "min_margin": 1.5,
        "min_ratio": 0.5,
        "max_ratio": 1.0,
        "seed": 7,
    },
    ScanReport: {"max_length": 2, "n_generators": 8, "total_words": 64, "violations": ((0, 3),)},
    SweepRow: {"params": (("R", 10.0),), "measured": 0.25, "bound": 1.0},
    SweepReport: {
        "name": "hexagon",
        "rows": (_ROW,),
        "samples": 3,
        "rejected": 1,
        "stats": (("slope", -0.5),),
    },
}

RECORDS = pytest.mark.parametrize("record", list(FIELDS), ids=lambda t: t.__name__)


def test_sixteen_records():
    assert len(FIELDS) == 16


@RECORDS
def test_keyword_and_positional_construction(record):
    fields = FIELDS[record]
    assert record._fields == tuple(fields)
    by_keyword = record(**fields)
    for name, value in fields.items():
        assert getattr(by_keyword, name) == value
    assert record(*fields.values()) == by_keyword


@RECORDS
def test_fields_cannot_be_assigned(record):
    r = record(**FIELDS[record])
    for name, value in FIELDS[record].items():
        with pytest.raises(AttributeError):
            setattr(r, name, value)
        with pytest.raises(AttributeError):
            delattr(r, name)


@RECORDS
def test_equal_values_give_equal_hashes(record):
    a, b = record(**FIELDS[record]), record(**FIELDS[record])
    assert a == b and not a != b
    if any(isinstance(v, dict) for v in FIELDS[record].values()):
        # a record holding a dict is unhashable, as the dict is
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert len({a, b}) == 1


@RECORDS
def test_repr_names_every_field(record):
    fields = FIELDS[record]
    want = ", ".join(f"{name}={value!r}" for name, value in fields.items())
    assert repr(record(**fields)) == f"{record.__name__}({want})"


def test_a_differing_field_breaks_equality():
    assert Circle(d=3) != Circle(d=5)
    assert PantsComplex(pants=(), circles=(Circle(),)) != PantsComplex(pants=(), circles=())
    g = PantsGraph(n_vertices=2, edges=(), marked=frozenset())
    assert g != PantsGraph(n_vertices=3, edges=(), marked=frozenset())
    assert PantsComplex(pants=(), circles=()) != PantsGraph(
        n_vertices=0, edges=(), marked=frozenset()
    )


def test_defaults():
    assert Circle() == Circle(d=1, k=1)
    assert Pants((0, 1, 2)).orientations == (1, 1, 1)
    assert AbelianGroup(2).torsion == ()
    report = SweepReport("hexagon", ())
    assert (report.samples, report.rejected, report.stats) == (0, 0, ())


def test_complex_caches_its_graph_in_the_instance():
    x = build_xp(1, 3)
    g = x._graph
    assert x._graph is g
    assert g._walks is g._walks
    assert x == build_xp(1, 3) and hash(x) == hash(build_xp(1, 3))


def test_one_record_rule():
    # every record is a tuple with _fields, and no class writes its own
    # equality, hash or immutability
    for record in FIELDS:
        assert issubclass(record, tuple) and isinstance(record._fields, tuple), record
    package = Path(goodpants.__file__).resolve().parent
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ClassDef):
                found += [
                    (path.name, node.name, item.name)
                    for item in node.body
                    if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and item.name in ("__eq__", "__hash__", "__setattr__", "__delattr__")
                ]
    assert found == []


def test_cached_tables_leave_equality_hash_and_repr_alone():
    x, fresh = build_xp(1, 3), build_xp(1, 3)
    want = (hash(fresh), repr(fresh))
    walks = x._graph._walks  # the graph validates x, which builds _incidence
    assert set(vars(x)) == {"_incidence", "_graph"} and not vars(fresh)
    assert vars(x._graph) == {"_walks": walks}
    assert x == fresh and (hash(x), repr(x)) == want
    assert x == (fresh.pants, fresh.circles)


class TestValidation:
    def test_point_height(self):
        for height in (0.0, -1.0, math.nan):
            with pytest.raises(ValueError, match="^interior points need positive height$"):
                Point(0j, height)
        assert Point(0j, 1e-300).height == 1e-300

    def test_geodesic_endpoints(self):
        for source, target in ((1 + 0j, 1 + 0j), (INFINITY, INFINITY)):
            with pytest.raises(ValueError, match="^geodesic endpoints must be distinct$"):
                OrientedGeodesic(source, target)
        assert OrientedGeodesic(INFINITY, 0j).apply(_M) == OrientedGeodesic(INFINITY, 0j)

    def test_half_normal_coordinate_positive_half_length(self):
        for hl in (0j, -1 + 0j, 1j):
            with pytest.raises(ValueError, match="^half-length must have positive real part$"):
                HalfNormalCoordinate(0j, hl)

    @pytest.mark.parametrize(
        "value, hl, want",
        [
            # reduced into [0, Re hl) x [0, 2 pi)
            (2.5 + 7j, 2 + 0j, complex(0.5, 7 - 2 * math.pi)),
            (-0.5 - 1j, 2 + 0j, complex(1.5, 2 * math.pi - 1)),
            # a skew lattice: 4.5 + i - 2 (2 + i)
            (4.5 + 1j, 2 + 1j, complex(0.5, 2 * math.pi - 1)),
            # within 1e-9 of a lattice line: snapped onto it
            (2 - 1e-10 + 0j, 2 + 0j, 0j),
            (-1e-10 + 0j, 2 + 0j, 0j),
            (0.5 + (2 * math.pi - 1e-10) * 1j, 2 + 0j, 0.5 + 0j),
            (0.5 + 1e-10j, 2 + 0j, 0.5 + 0j),
            (5e-10 + 1j, 2 + 0j, 1j),
            # beyond 1e-9: kept
            (2e-9 + 3e-9j, 2 + 0j, 2e-9 + 3e-9j),
        ],
    )
    def test_half_normal_coordinate_canonical_value(self, value, hl, want):
        got = HalfNormalCoordinate(value, hl)
        assert got.hl is hl
        assert abs(got.value - want) < 1e-12
        if want.real == 0.0 or want.imag == 0.0:
            # snapped parts are exact zeros
            assert (got.value.real == 0.0) == (want.real == 0.0)
            assert (got.value.imag == 0.0) == (want.imag == 0.0)

    def test_abelian_group(self):
        with pytest.raises(ValueError, match="^rank must be non-negative, got -1$"):
            AbelianGroup(-1)
        with pytest.raises(ValueError, match="^torsion coefficients must exceed 1$"):
            AbelianGroup(0, (1, 2))
        with pytest.raises(ValueError, match="^torsion coefficients must form a divisor chain$"):
            AbelianGroup(0, (2, 3))
        assert AbelianGroup(0, (2, 6, 12)).describe() == "Z/2 + Z/6 + Z/12"

    def test_integer_matrix_ragged_rows(self):
        with pytest.raises(ValueError, match="^ragged rows$"):
            IntegerMatrix(((1, 2), (3,)))
        assert IntegerMatrix(()).cols == 0


def _importers(module):
    """The package's modules that import ``module`` anywhere: at the top or in a body."""
    package = Path(goodpants.__file__).resolve().parent
    importers = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name.split(".")[0] == module for name in names):
                importers.append(path.name)
    return sorted(set(importers))


def test_no_module_imports_dataclasses():
    # a dataclass import costs every command about 7 ms of start-up
    # (dataclasses pulls in inspect); the records are NamedTuples
    assert _importers("dataclasses") == []


def test_only_the_array_modules_import_numpy():
    # holonomy develops in Python complex numbers, and verify's array
    # checks live in elementwise, so build and angle-change compile none
    # of the array code they never run
    assert _importers("numpy") == ["elementwise.py", "lemmalab.py", "streams.py"]


def _spelled(node):
    """The number a node spells, bare, negated or wrapped as np.uint64(n)."""
    if isinstance(node, ast.Call) and len(node.args) == 1:
        node = node.args[0]
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.USub):
        value = _spelled(node.operand)
        return None if value is None else -value
    if isinstance(node, ast.Constant) and type(node.value) in (int, float):
        return node.value
    return None


# PCG64's multiplier and SeedSequence's hash and mix constants
SEEDING_CONSTANTS = {
    0x2360ED051FC65DA44385DF649FCCF645,
    0x43B0D7E5, 0x931E8875, 0x8B51F9DD, 0x58F38DED, 0xCA01F9DD, 0x4973F715,
}


def test_only_streams_knows_numpy_draw_rules():
    # numpy's draw constants, the >> 11 and 2**-53 of a unit double and
    # the 32-bit mask of Lemire's method, and its seeding and output
    # constants are written in streams alone, each seeding constant once
    package = Path(goodpants.__file__).resolve().parent
    found, in_streams = [], []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Constant) and node.value in SEEDING_CONSTANTS:
                (in_streams if path.name == "streams.py" else found).append(node.value)
            if path.name == "streams.py":
                continue
            if isinstance(node, ast.BinOp) and (
                (isinstance(node.op, ast.RShift) and _spelled(node.right) == 11)
                or (isinstance(node.op, ast.Pow) and _spelled(node.right) == -53)
            ):
                found.append((path.name, node.lineno))
            elif isinstance(node, ast.Constant) and node.value == 0xFFFFFFFF:
                found.append((path.name, node.lineno))
    assert found == []
    assert sorted(in_streams) == sorted(SEEDING_CONSTANTS)
