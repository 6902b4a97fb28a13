import numpy as np
import pytest

from levyflow import csvtext
from levyflow.csvtext import format_rows


def _g17_rows(table: np.ndarray) -> bytes:
    return "".join(",".join("%.17g" % x for x in row) + "\n"
                   for row in table.tolist()).encode()


def _check(table: np.ndarray, lead: tuple | None = None) -> None:
    text, ends = format_rows(table, lead)
    assert text == _g17_rows(table if lead is None else
                             np.column_stack([lead[0][lead[1]], table]))
    lines = text.split(b"\n")[:-1]
    assert ends.tolist() == np.cumsum([len(line) + 1 for line in lines]).tolist()


def _around(x: float) -> list:
    return [np.nextafter(x, -np.inf), x, np.nextafter(x, np.inf)]


EDGES = ([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
          np.finfo(float).max, -np.finfo(float).max, 0.5, 1.0, -1.0]
         # each power of ten from 1e-12 to 1e20 and the doubles either side
         + [y for k in range(-12, 21) for y in _around(float(f"1e{k}"))]
         # the fixed/exponent boundaries of "%.17g"
         + _around(1e-4) + _around(1e-5) + _around(1e16) + _around(1e17)
         + [9.9999999999999995e-05, 9.9999999999999991e-05, 99999999999999984.0]
         # exact ties at the 17th digit round half to even
         + [1234567890123456.25, 1234567890123456.75, 9007199254740993.0 / 8,
            0.1234567890123456789, 123456789012345.671875]
         # integers near 2**53
         + [float(2 ** 53 + i) for i in range(-6, 7, 2)] + [float(2 ** 53 - 1)])


@pytest.mark.parametrize("n_cols", (1, 3))
def test_edge_values_match_g17(n_cols):
    values = np.array(EDGES + [-x for x in EDGES])
    values = values[:values.size // n_cols * n_cols]
    _check(values.reshape(-1, n_cols))


def test_values_across_the_fast_range_match_g17():
    # log-uniform values of both signs from 1e-6 to 1e19, short decimals, and
    # integers over 2**53 divided by small powers of two (many exact ties)
    rng = np.random.default_rng(0)
    sign = rng.choice([-1.0, 1.0], 6000)
    spread = sign * 10.0 ** rng.uniform(-6, 19, 6000)
    short = np.round(rng.normal(size=6000), rng.integers(0, 8))
    ties = rng.integers(2 ** 53, 2 ** 60, 6000) / 2.0 ** rng.integers(1, 12, 6000)
    _check(np.column_stack([spread, short, ties]))


def test_a_table_past_one_chunk_keeps_its_rows():
    rng = np.random.default_rng(1)
    table = rng.normal(size=(3000, 7)) * 10.0 ** rng.integers(-8, 20, (3000, 7))
    table[::5, 2] = 0.0
    assert table.size > 2 * csvtext._CHUNK
    _check(table)
    _check(table[:0])


def test_a_lead_column_starts_every_row():
    # a run's time grid, shared by paths of 5, 6000 and 1 rows
    grid = 0.1 + 0.005 * np.arange(6000)
    steps = np.concatenate([np.arange(5), np.arange(6000), np.arange(1)])
    table = np.random.default_rng(2).normal(size=(steps.size, 3))
    assert table.size > 2 * csvtext._CHUNK
    _check(table, (grid, steps))
    _check(table[:0], (grid, steps[:0]))


def test_the_property_holds_for_arbitrary_tables():
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import strategies as st
    from hypothesis.extra import numpy as hnp

    @hypothesis.settings(max_examples=200, deadline=None)
    @hypothesis.given(hnp.arrays(np.float64, st.tuples(st.integers(1, 50), st.integers(1, 15)),
                                 elements=st.floats()))
    def holds(table):
        _check(table)

    holds()
