"""Query techniques for reading objects out of cluster units (Section 5.4).

Given a cluster unit and the set of candidate objects a window query
needs from it, three techniques decide what to transfer:

* **complete** — the whole unit with a single request ("the simplest
  technique possible", Section 5.4's baseline);
* **threshold** — the geometric threshold of [BKS93a]/Section 5.4.1:
  read the complete unit iff the window covers a fraction of the unit's
  region exceeding ``T(c) = t_compl(c) / t_page``, else object by
  object through the unit's relative addresses (one seek for the unit,
  then a rotational delay per object);
* **slm** — the read schedules of [SLM93]/Section 5.4.2: coalesce
  requested pages, reading through gaps shorter than
  ``l = tl/tt - 1/2`` pages;

plus the analytic **optimum** (one seek, one rotational delay, and only
the requested pages transferred) used as the lower bound in Figures
10/16.

Per Section 5.4.3, a cluster unit read with several requests is not
interrupted by other jobs, so only the first request pays a seek;
follow-ups inside the unit pay a rotational delay only.
"""

from __future__ import annotations

from repro.disk.params import DiskParameters
from repro.core.unit import ClusterUnit
from repro.errors import ConfigurationError
from repro.iosched.request import AccessPlan

__all__ = [
    "TECHNIQUES",
    "slm_schedule",
    "geometric_threshold",
    "plan_complete",
    "plan_per_object",
    "plan_slm",
    "plan_optimum",
]

TECHNIQUES = ("complete", "threshold", "slm", "adaptive", "optimum")
"""Valid technique names for the cluster organization's window queries.

``adaptive`` is an extension beyond the paper: where the geometric
threshold *estimates* the needed objects from the window/unit-region
overlap, the adaptive technique uses the exact candidate count the
filter step already produced and picks the cheaper of a complete read
and per-object access."""


def check_technique(technique: str) -> None:
    """Refuse a name that is not one of :data:`TECHNIQUES`."""
    if technique not in TECHNIQUES:
        raise ConfigurationError(
            f"unknown query technique '{technique}'; valid: {TECHNIQUES}"
        )


def slm_schedule(requested: list[int], gap_pages: int) -> list[tuple[int, int]]:
    """Coalesce sorted distinct page indexes into read runs.

    A gap of ``gap_pages`` or more non-requested pages interrupts the
    request (transferring through shorter gaps is cheaper than paying
    another rotational delay).  Returns ``(start, npages)`` runs.
    """
    if gap_pages < 1:
        raise ConfigurationError(f"gap must be >= 1 page, got {gap_pages}")
    if not requested:
        return []
    runs: list[tuple[int, int]] = []
    run_start = requested[0]
    prev = requested[0]
    for page in requested[1:]:
        if page <= prev:
            raise ConfigurationError("requested pages must be sorted and distinct")
        if page - prev - 1 >= gap_pages:
            runs.append((run_start, prev - run_start + 1))
            run_start = page
        prev = page
    runs.append((run_start, prev - run_start + 1))
    return runs


def geometric_threshold(
    unit_pages: int,
    avg_entries_per_page: float,
    avg_pages_per_object: float,
    params: DiskParameters,
) -> float:
    """The query threshold ``T(c)`` of Section 5.4.1.

    ``t_compl(c) = ts + tl + tt * size(c)`` is the cost of one complete
    read; ``t_page = ts + noe * (tl + nop * tt)`` the cost of fetching
    all of the page's objects individually.  A window covering more than
    the fraction ``T = t_compl / t_page`` of the unit's region is
    expected to need enough of its objects that the complete read wins.
    """
    t_compl = params.seek_ms + params.latency_ms + params.transfer_ms * unit_pages
    t_page = params.seek_ms + avg_entries_per_page * (
        params.latency_ms + avg_pages_per_object * params.transfer_ms
    )
    return t_compl / t_page


def adaptive_prefers_complete(
    unit_pages: int,
    n_candidates: int,
    avg_pages_per_object: float,
    params: DiskParameters,
) -> bool:
    """Extension: decide complete-vs-per-object from the *actual*
    candidate count instead of the geometric overlap estimate.

    ``t_compl = ts + tl + tt * size(c)`` against
    ``t_page = ts + n * (tl + nop * tt)`` with the true ``n``.
    """
    t_compl = params.seek_ms + params.latency_ms + params.transfer_ms * unit_pages
    t_page = params.seek_ms + n_candidates * (
        params.latency_ms + avg_pages_per_object * params.transfer_ms
    )
    return t_compl <= t_page


# ----------------------------------------------------------------------
# plan builders: each appends its technique's declarative requests to an
# AccessPlan and returns the relative page runs it scheduled
# ----------------------------------------------------------------------
def plan_complete(plan: AccessPlan, unit: ClusterUnit) -> list[tuple[int, int]]:
    """Schedule the whole unit as a single request."""
    used = unit.used_pages
    if used == 0:
        return []
    plan.read(unit.extent.start, used)
    return [(0, used)]


def plan_per_object(
    plan: AccessPlan, unit: ClusterUnit, oids: list[int]
) -> list[tuple[int, int]]:
    """Object-by-object access: one seek positions the head on the
    unit, then every object pays a rotational delay plus its transfer
    (the ``t_page`` model of Section 5.4.1).

    The requests share one continuation chain, so the seek is charged
    by the first access that actually transfers: behind a warm buffer
    pool an access may be absorbed entirely by resident pages (cost 0),
    and a request that never positioned the head must not hand the
    continuation discount to its successors."""
    runs: list[tuple[int, int]] = []
    chain = plan.new_chain()
    for oid in oids:
        start, npages = unit.page_span(oid)
        plan.read(unit.extent.start + start, npages, chain=chain)
        runs.append((start, npages))
    return runs


def plan_slm(
    plan: AccessPlan, unit: ClusterUnit, oids: list[int], gap_pages: int
) -> list[tuple[int, int]]:
    """SLM read schedule over the pages of the requested objects.

    As in :func:`plan_per_object`, only a run that actually transfers
    (non-zero cost behind a warm pool) unlocks the continuation
    discount for the following runs."""
    requested = unit.requested_pages(oids)
    runs = slm_schedule(requested, gap_pages)
    chain = plan.new_chain()
    for start, npages in runs:
        plan.read(unit.extent.start + start, npages, chain=chain)
    return runs


def plan_optimum(
    plan: AccessPlan, unit: ClusterUnit, oids: list[int]
) -> list[tuple[int, int]]:
    """Analytic lower bound: one seek, one rotational delay, and only
    the requested pages transferred (Section 5.4.3)."""
    requested = unit.requested_pages(oids)
    if not requested:
        return []
    plan.read(unit.extent.start, len(requested))
    return [(page, 1) for page in requested]
