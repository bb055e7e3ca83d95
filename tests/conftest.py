from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import latticekit as lk
from latticekit import catalog
from latticekit import lattice as lattice_module

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# row-block sizes for the table builders: the default, and one so small
# that every input spans several blocks
BLOCK_CELLS = (lattice_module.TABLE_BLOCK_CELLS, 16)


def table_blocks(cells):
    """Run the table builders with row blocks of ``cells`` cells."""
    return mock.patch.object(lattice_module, "TABLE_BLOCK_CELLS", cells)


def reference_set_tables(sets):
    """Pair-loop reference over sets as Python ints: subset order, and the
    positions of intersections and unions."""
    index = {s: i for i, s in enumerate(sets)}
    m = len(sets)
    leq = np.zeros((m, m), dtype=bool)
    meet = np.zeros((m, m), dtype=np.int16)
    join = np.zeros((m, m), dtype=np.int16)
    for i, a in enumerate(sets):
        for j, b in enumerate(sets):
            leq[i, j] = a & ~b == 0
            meet[i, j] = index[a & b]
            join[i, j] = index[a | b]
    return leq, meet, join


def reference_find_pentagon(l):
    """Pair-loop pentagon search: b ascending, c ascending above b, then
    the smallest a."""
    n = l.n
    leq = l.leq
    comparable = leq | leq.T
    for b in range(n):
        above = np.nonzero(leq[b] & ~np.eye(n, dtype=bool)[b])[0]
        for c in above:
            hit = (
                (l.meet[:, b] == l.meet[:, c])
                & (l.join[:, b] == l.join[:, c])
                & ~comparable[:, b]
                & ~comparable[:, c]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                a = int(idx[0])
                o, i = int(l.meet[a, b]), int(l.join[a, b])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


def reference_find_diamond(l):
    """Pair-loop diamond search: a ascending, b > a ascending, then the
    smallest c."""
    n = l.n
    comparable = l.leq | l.leq.T
    for a in range(n):
        for b in range(a + 1, n):
            if comparable[a, b]:
                continue
            o, i = int(l.meet[a, b]), int(l.join[a, b])
            hit = (
                (l.meet[:, a] == o)
                & (l.meet[:, b] == o)
                & (l.join[:, a] == i)
                & (l.join[:, b] == i)
                & ~comparable[:, a]
                & ~comparable[:, b]
            )
            idx = np.nonzero(hit)[0]
            if idx.size:
                c = int(idx[0])
                return tuple(l.names[k] for k in (o, a, b, c, i))
    return None


@pytest.fixture(scope="session")
def case_n1_spec():
    return lk.load_spec(FIXTURES / "case_n1.json")


@pytest.fixture(scope="session")
def case_n2_spec():
    return lk.load_spec(FIXTURES / "case_n2.json")


@pytest.fixture(scope="session")
def case_n1(case_n1_spec):
    return lk.reconstruct(case_n1_spec)


@pytest.fixture(scope="session")
def case_n2(case_n2_spec):
    return lk.reconstruct(case_n2_spec)


@pytest.fixture(scope="session")
def pentagon():
    return catalog.pentagon()


@pytest.fixture(scope="session")
def diamond():
    return catalog.diamond()


@pytest.fixture(scope="session")
def b3():
    return catalog.boolean_lattice(3)


@pytest.fixture(scope="session")
def d12():
    return catalog.divisor_lattice(12)


def length_three_lattices():
    """J(P) over the five 3-element posets: all distributive of length 3."""
    return {
        name: lk.ideals_lattice(p).lattice
        for name, p in catalog.three_element_posets().items()
    }


def distributive_fixture_lattices(case_n1, case_n2):
    """Every bundled distributive lattice, by name."""
    import latticekit.freedist as fd

    out = {f"B{k}": catalog.boolean_lattice(k) for k in range(1, 5)}
    out["D12"] = catalog.divisor_lattice(12)
    for name, l in length_three_lattices().items():
        out[f"len3_{name}"] = l
    for k in (2, 3):
        out[f"free{k}_restricted"] = fd.generate_lattice(k)
        out[f"free{k}_extended"] = fd.generate_lattice(k, extended=True)
    out["case_n2"] = case_n2.lattice
    out["case_n1"] = case_n1.lattice
    return out
