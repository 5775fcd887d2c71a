"""Byte pins for the SVG charts.

Every chart is drawn through cli._write_run_outputs, the chart set that
`ftcsim run` writes, and compared by sha256. The short stock run has 2001
rows, so it is thinned at stride 2 to 1001 points. The synthetic traces
reach the other branches: 2000 rows (no thinning), 2500 rows (stride 2,
the last row kept although 2499 is odd), a constant trace (y_hi == y_lo),
a single sample (x_hi == x_lo), and minima that tie between -0.0 and 0.0.
"""

import dataclasses
import hashlib

import numpy as np
import pytest

from ftcsim import cli, svgplot
from ftcsim.engine import Metrics, SimTrace

CHARTS = ("output.svg", "states.svg", "xtilde.svg", "adaptation.svg")


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_short_stock_run(short_scenario, tmp_path):
    assert cli.main(["run", str(short_scenario), "-o", str(tmp_path)]) == 0
    assert {name: sha256((tmp_path / name).read_bytes()) for name in CHARTS} == {
        "output.svg":
            "2797e53418037eeca25267bbfc1b8dafe2465d2a13e5932af2070edb7899b3a0",
        "states.svg":
            "cd566e173c5f0b4ed77cd9c1d19d80242be4bd5b3923c2c98f221643f62d5339",
        "xtilde.svg":
            "e2eb891013c8ff4a3b1504ed68f17bf7fe150469b5a187e631d8f3fb8562ae97",
        "adaptation.svg":
            "cd34c3f1b96463e078d0f277ac3bd108fd0d1d5225c65ee08c6f31aa12a4de71",
    }


def synthetic_trace(t, column) -> SimTrace:
    """A one-state, one-output trace; the k-th field after t is column(k)."""
    fields = {}
    for k, field in enumerate(dataclasses.fields(SimTrace)[1:]):
        col = np.asarray(column(k), dtype=float)
        scalar = field.name in ("u", "u_f", "N", "d_hat")
        fields[field.name] = col if scalar else col.reshape(-1, 1)
    return SimTrace(t=np.asarray(t, dtype=float), **fields)


def _wave(rows):
    t = np.arange(rows) * 0.01
    return t, lambda k: np.sin((k + 1) * t) + 0.1 * k


_ZEROS = [0.0, -0.0]

# case -> (t, column, sha256 of the four charts concatenated in CHARTS order)
CASES = {
    "2000 rows": (
        *_wave(2000),
        "21efc484ae394b53c4eda31b293660816eedd783fc2e547ca5e392c41c585fb5"),
    "2500 rows": (
        *_wave(2500),
        "34b87c039e0306b58b01c3a67842b9e03862f4d04343f6cf4e1a7d10b36a2ed9"),
    "constant": (
        [0.0, 0.5, 1.0], lambda k: [2.5, 2.5, 2.5],
        "585542c474ae11cab7f797b3df17b9f305fbc15ac2443e409982c9170a97e913"),
    "single sample": (
        [0.0], lambda k: [0.5 * k - 3.0],
        "bd8e68cfc62554b675477393d9e5e6b6bf2caa048ef50d6d29b169f90ca8b4ff"),
    "signed-zero minimum": (
        [0.0, 0.5, 1.0, 1.5],
        lambda k: [_ZEROS[k % 2], 1.0, _ZEROS[(k + 1) % 2], 0.25 * k],
        "c1e9b7f447ee9aba5ddc39c810f718eaeed4124a4181e44d1354720882435074"),
}


@pytest.mark.parametrize("case", list(CASES))
def test_synthetic_trace(case, stock, tmp_path):
    t, column, expected = CASES[case]
    m = Metrics(sup_e_tail=0.0, sup_xtilde_tail=0.0, events=[],
                uub_bound=1.0, uub_satisfied=True)
    cli._write_run_outputs(synthetic_trace(t, column), stock, m, tmp_path)
    charts = b"".join((tmp_path / name).read_bytes() for name in CHARTS)
    assert sha256(charts) == expected


def test_text_escaped_as_xml(tmp_path):
    from xml.sax.saxutils import escape
    label = "a<b & c>d &amp; <"
    t = np.array([0.0, 1.0])
    svgplot.write_chart(tmp_path / "c.svg", t, [(label, t)], label, label)
    body = (tmp_path / "c.svg").read_text()
    assert body.count(escape(label)) == 3 and label not in body
