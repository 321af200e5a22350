"""The claims harness of ``benchmarks/test_paper_claims.py`` on hand-made
rows, with no figure built, and the committed ``paper_claims.txt``."""

from __future__ import annotations

import pathlib
import re

import pytest

from repro.eval.figures import FIGURES

from benchmarks.test_paper_claims import RECORDED_AS, check, claims_text

ROWS = [{"series": "A-1", "cost (s)": 2.0}, {"series": "C-1", "cost (s)": 3.0}]


def grows(rows):
    growth = rows[1]["cost (s)"] / rows[0]["cost (s)"]
    return [("C-1 costs more than A-1", "1.25", growth, growth > 1.0)]


def cheap(rows):
    most = max(r["cost (s)"] for r in rows)
    return [*grows(rows), ("every series under 2.5 s", "-", most, most < 2.5), ("areas", "-", "2/2", True)]


def test_a_claim_that_does_not_hold_reads_no_and_fails_its_case():
    checked = {}
    check(checked, "fig5", grows, ROWS)
    with pytest.raises(AssertionError, match="every series under 2.5 s"):
        check(checked, "fig14 series", cheap, ROWS)
    assert [(row["figure"], row["holds"]) for row in checked["fig14 series"]] == [
        ("fig14", "yes"), ("fig14", "no"), ("fig14", "yes"),
    ]
    # Figure, claim, the paper's value, the value here (two decimals, or
    # text such as a count) and whether it holds.
    assert claims_text(0.08, [*checked["fig5"], *checked["fig14 series"]]) == (
        "The paper's claims, checked at scale=0.08\n"
        "figure                     claim  paper  here  holds\n"
        "------  ------------------------  -----  ----  -----\n"
        "  fig5   C-1 costs more than A-1   1.25  1.50    yes\n"
        " fig14   C-1 costs more than A-1   1.25  1.50    yes\n"
        " fig14  every series under 2.5 s      -  3.00     no\n"
        " fig14                     areas      -   2/2    yes\n"
    )


def test_the_committed_file_lists_every_figure_held():
    path = pathlib.Path(__file__).parents[1] / "benchmarks" / "results" / "paper_claims.txt"
    title, header, _rule, *rows = path.read_text().splitlines()
    assert title == "The paper's claims, checked at scale=0.08"
    assert re.split(r" {2,}", header.strip()) == ["figure", "claim", "paper", "here", "holds"]
    cells = [re.split(r" {2,}", row.strip()) for row in rows]
    # Every figure's claims, in the order of FIGURES (the addendum's under fig14).
    assert list(dict.fromkeys(row[0] for row in cells)) == list(FIGURES)
    assert list(dict.fromkeys(case.split()[0] for case in RECORDED_AS)) == list(FIGURES)
    assert {row[-1] for row in cells} == {"yes"}
