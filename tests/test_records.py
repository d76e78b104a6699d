"""The result records are named tuples, and importing charp loads no
dataclass machinery."""

import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

from charp import (
    GREVLEX,
    CechClass,
    CensusReport,
    CensusRow,
    ClosureChainReport,
    EtaReport,
    MonomialOrder,
    RegularSequenceCheck,
    RingFile,
    cech_class,
    eta_estimate,
    frobenius_closure,
    parse_ring_file,
    uniform_census,
)
from support import fermat_ring

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_leaves_out_dataclasses_and_inspect():
    """A fresh ``python -S`` process (no site packages, so nothing else
    imports them first) loads neither module with charp."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = "import sys, charp; print(sorted(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    out = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True)
    assert out.stdout == "[]\n"


@pytest.fixture(scope="module")
def census():
    return uniform_census(fermat_ring(2), "x^{a}, y^{b}", {"a": [1, 2], "b": [1]})


def test_census_records_read_compare_and_repr_as_named_tuples(census):
    row = census.rows[0]
    assert repr(row) == (
        "CensusRow(parameters=(('a', 1), ('b', 1)), ideal_digest=('z^2', 'x', 'y'), "
        "q_exponent=1, regular_sequence_ok=True, stabilized=True)"
    )
    assert (census.uniform_e, census.recheck_ok, census.e_max, census.window) == (1, True, 8, 2)
    assert row == CensusRow(*row) == tuple(row)
    parameters, digest, q, regular, stabilized = row
    assert (parameters, q, stabilized) == (row.parameters, row.q_exponent, row.stabilized)
    assert row != census.rows[1]


def test_census_report_pickles(census):
    back = pickle.loads(pickle.dumps(census))
    assert type(back) is CensusReport and type(back.rows[0]) is CensusRow
    assert back == census


def test_records_refuse_assignment(census):
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    records = [
        (census, "uniform_e"),
        (census.rows[0], "q_exponent"),
        (GREVLEX, "kind"),
        (R.is_poor_regular_sequence([x, y]), "ok"),
        (cech_class(R, [x, y], z), "level"),
        (eta_estimate(R, [x, y], n_max=0), "eta_hat"),
        (frobenius_closure(R, [x, y]), "status"),
        (parse_ring_file("char 2;\nvars x;\n"), "quotient"),
    ]
    assert sorted(type(r).__name__ for r, _ in records) == sorted(
        t.__name__ for t in (CensusReport, CensusRow, MonomialOrder, RegularSequenceCheck,
                             CechClass, EtaReport, ClosureChainReport, RingFile))
    for record, name in records:
        with pytest.raises(AttributeError):
            setattr(record, name, None)


def test_record_defaults_methods_and_properties():
    assert MonomialOrder("lex") == MonomialOrder("lex", None) and str(MonomialOrder("block", 2)) == "block(2)"
    assert RegularSequenceCheck(True).failure_index is None
    assert not RegularSequenceCheck(False, 0)  # truth is the outcome, not the tuple's length
    R = fermat_ring(2)
    x, y, z = R.ambient.gens()
    assert str(cech_class(R, [x, y], z)) == "[(z) / (x*y)^1]"
    report = frobenius_closure(R, [x, y])
    assert report.stabilized and report.q_value == 2 ** report.q_exponent
    assert report.completeness.startswith("heuristic")
    assert eta_estimate(R, [x, y], n_max=0).label == "η̂ (scan n ≤ 0) = 1"
    # an empty ideal table is read-only, so no two ring files share one
    first, second = RingFile(R.ambient), RingFile(R.ambient)
    with pytest.raises(TypeError):
        first.ideals["I"] = (x,)
    assert first.ideals == second.ideals == {}
