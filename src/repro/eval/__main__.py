"""Run the evaluation from the command line.

::

    python -m repro.eval [--scale 0.08] [--only fig8,fig12,...]
    python -m repro.eval workload [--policies lru,clock] [--scale 0.02] [--profile]
    python -m repro.eval pagestore [--disks 1,2,4,8] [--placements spatial]
    python -m repro.eval iosched [--schedulers sync,overlap] [--prefetch none,cluster]
                                 [--admission none,priority]
    python -m repro.eval traffic [--sessions 100000] [--arrival poisson] [--ablation]
    python -m repro.eval tiering [--migrations none,static,promote-on-hit,lru-demote]
    python -m repro.eval trace [--trace-out trace.json] [--metrics-out metrics.json]
    python -m repro.eval storage [--scale 0.02] [--path db.dat]
                                 [--report-out storage_report.json]
    python -m repro.eval reorg [--sessions 2000] [--budget-pages 64]
                               [--rounds 40] [--delete-fraction 0.5]

Without a subcommand every table and figure of the paper — the rows of
:data:`repro.eval.figures.FIGURES` — is regenerated in sequence.
``python -m repro.eval <subcommand> --help`` describes
each subcommand and its flags; both texts come from the tables below.

Three tables drive everything: ``FLAGS`` declares each flag once
(type, help, and the registry or range it is validated against, at
parse time), ``SCENARIOS`` gives each subcommand its description, the
flags it takes with its own defaults, its header line and its body,
and ``main`` is the one runner: parse → config → dataset → header →
body.  The bodies and the steps they share live in
:mod:`repro.eval.scenarios`.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, replace
from typing import Callable

from repro.buffer.policy import POLICIES
from repro.data.series import TABLE1
from repro.eval import scenarios
from repro.eval.config import ExperimentConfig
from repro.eval.context import ORG_NAMES, ExperimentContext
from repro.eval.figures import FIGURES
from repro.eval.report import format_header
from repro.eval.scenarios import UsageError
from repro.iosched import ADMISSIONS, PREFETCHERS, SCHEDULERS
from repro.pagestore import MIGRATIONS
from repro.pagestore.placement import PLACEMENTS
from repro.workload.traffic import ARRIVALS

# Checks on a flag's value: (how help and error spell it, the test).
POSITIVE_INT = (">= 1", lambda v: v >= 1)


def one_of(registry) -> tuple:
    return (f"one of {', '.join(registry)}", tuple(registry).__contains__)


@dataclass(frozen=True)
class Flag:
    """One command-line flag, declared once; ``args.<dest>`` holds its
    parsed value.  A scenario that needs its own default, help or
    list-ness re-declares those fields (see :class:`Scenario`)."""

    name: str
    help: str
    kind: type = str  # bool makes it a switch
    default: object = None
    check: tuple[str, Callable[[object], bool]] | None = None
    many: bool = False  # a comma-separated list of values
    metavar: str | None = None

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")

    def _one(self, text: str):
        try:
            value = self.kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {self.kind.__name__} value: {text!r}"
            ) from None
        if self.check is not None and not self.check[1](value):
            raise argparse.ArgumentTypeError(f"must be {self.check[0]}, got {text!r}")
        return value

    def parse(self, text: str):
        """Convert and validate a command-line value — argparse calls
        this, so a bad value is a usage error before anything runs."""
        if not self.many:
            return self._one(text)
        values = [self._one(part.strip()) for part in text.split(",") if part.strip()]
        if not values:
            raise argparse.ArgumentTypeError("needs at least one value")
        return values

    def add_to(self, parser: argparse.ArgumentParser) -> None:
        if self.kind is bool:
            parser.add_argument(self.name, action="store_true", help=self.help)
            return
        text = self.help
        if self.check is not None:
            text += f" ({self.check[0]})"
        if self.default is not None:
            text += " (default %(default)s)"
        parser.add_argument(
            self.name,
            type=self.parse,
            default=self.default,
            metavar=self.metavar,
            help=text,
        )


DECLARED = (
    # -- the dataset -------------------------------------------------------
    Flag("--scale", "dataset scale in (0, 1] (default: REPRO_SCALE or 0.08)", float),
    Flag("--seed", "dataset seed", int, 1994),
    Flag("--series", "Table 1 series", default="A-1", check=one_of(TABLE1)),
    Flag(
        "--only", "comma-separated experiment names", check=one_of(FIGURES),
        many=True,
    ),
    # -- the database ------------------------------------------------------
    Flag(
        "--organization", "storage organization", default="cluster",
        check=one_of(ORG_NAMES),
    ),
    Flag("--disks", "disks behind the buffer pool", int, 4, check=POSITIVE_INT),
    Flag(
        "--placement", "declustering placement", default="spatial",
        check=one_of(PLACEMENTS),
    ),
    Flag(
        "--placements", "comma-separated placements",
        default="spatial,round_robin,hash", check=one_of(PLACEMENTS), many=True,
    ),
    Flag(
        "--scheduler",
        "I/O scheduler servicing access plans: sync (the paper's pricing) "
        "or overlap (virtual-clock async simulation)",
        default="sync", check=one_of(SCHEDULERS),
    ),
    Flag(
        "--schedulers", "comma-separated schedulers", default="sync,overlap",
        check=one_of(SCHEDULERS), many=True,
    ),
    Flag("--prefetch", "read-ahead policy", default="none", check=one_of(PREFETCHERS)),
    Flag(
        "--admission", "admission policy on the overlap scheduler", default="none",
        check=one_of(ADMISSIONS),
    ),
    Flag(
        "--migrations",
        "comma-separated migration policies ('none' = the flat single disk)",
        default="none,static,promote-on-hit,lru-demote",
        check=one_of(("none", *MIGRATIONS)), many=True,
    ),
    Flag(
        "--fast-pages",
        "fast-tier budget in pages (deliberately smaller than the dataset, "
        "so placement matters)",
        int, 256, check=POSITIVE_INT,
    ),
    Flag("--buffer-pages", "shared pool size in page frames", int, 400),
    Flag(
        "--policies", "comma-separated replacement policies", default="lru,clock",
        check=one_of(POLICIES), many=True,
    ),
    # -- the workload ------------------------------------------------------
    Flag("--queries", "window queries", int, 60),
    Flag(
        "--window-area", "window area as a fraction of the data space", float, 1e-2,
        check=("in (0, 1]", lambda v: 0.0 < v <= 1.0),
    ),
    Flag(
        "--hot-fraction", "fraction of queries aimed at the hot corner", float, 0.9,
        check=("in [0, 1]", lambda v: 0.0 <= v <= 1.0),
    ),
    Flag("--no-join", "skip the spatial join at the end of the stream", bool),
    Flag(
        "--trace",
        "JSONL workload trace: replayed when PATH exists, recorded there "
        "otherwise (runs become replayable)",
        metavar="PATH",
    ),
    Flag(
        "--sessions", "generated sessions", int, 100_000,
        check=(">= 0", lambda v: v >= 0),
    ),
    Flag("--arrival", "arrival process", default="poisson", check=one_of(ARRIVALS)),
    Flag(
        "--rate",
        "mean arrival rate in sessions per virtual second (ignored by the "
        "closed-loop process)",
        float, 200.0, check=("> 0", lambda v: v > 0),
    ),
    Flag("--ops-per-session", "max operations per session", int, 1),
    Flag("--think-ms", "closed-loop think time between operations", float, 50.0),
    Flag(
        "--ablation",
        "instead of one run, compare admission none vs priority at the base "
        "--rate and at 10x overload (4 runs)",
        bool,
    ),
    Flag(
        "--delete-fraction", "fraction of objects deleted to degrade clustering",
        float, 0.5, check=("in (0, 1)", lambda v: 0.0 < v < 1.0),
    ),
    Flag("--budget-pages", "pages one reorganization round may move", int, 64),
    Flag("--rounds", "reorganization rounds spread over the traffic", int, 40),
    Flag(
        "--path",
        "backing file for the page image (default: a temporary directory, "
        "removed afterwards)",
        metavar="PATH",
    ),
    Flag(
        "--crash-points",
        "write boundaries sampled per torn/clean variant in the crash matrix "
        "(boundary 0 and the final superblock write are always included)",
        int, 8, check=(">= 2", lambda v: v >= 2),
    ),
    # -- what is written out -----------------------------------------------
    Flag(
        "--profile",
        "run under cProfile and print the top-15 cumulative-time entries, so "
        "perf PRs can find the next hot spot",
        bool,
    ),
    Flag(
        "--profile-out",
        "write the raw cProfile pstats dump to PATH (implies --profile)",
        metavar="PATH",
    ),
    Flag(
        "--trace-out",
        "run under the span tracer and write a Chrome trace-event / Perfetto "
        "JSON timeline to PATH (open at https://ui.perfetto.dev; suffixed per "
        "configuration when several run)",
        metavar="PATH",
    ),
    Flag(
        "--metrics-out",
        "write the flattened metrics-registry snapshot as JSON to PATH "
        "(suffixed like --trace-out)",
        metavar="PATH",
    ),
    Flag(
        "--report-out", "write the cross-validation + crash-matrix report as JSON",
        metavar="PATH",
    ),
)
FLAGS = {flag.dest: flag for flag in DECLARED}


class Scenario:
    """One row of the CLI: what ``--help`` says, the flags it takes,
    the header it prints and the body that runs under it.

    ``takes`` names the declared flags in ``--help`` order; ``own``
    holds, per flag, the fields this subcommand declares differently.
    """

    def __init__(self, name, description, takes, header, run, **own):
        names = takes.split()
        if set(own) - set(names):
            raise ValueError(f"{name}: re-declares flags it does not take")
        self.name, self.description = name, description
        self.flags = tuple(replace(FLAGS[n], **own.get(n, {})) for n in names)
        self.header, self.run = header, run


PAPER = Scenario(
    "",
    "Reproduce the paper's tables and figures.",
    "scale seed only",
    lambda a, d: "Brinkhoff & Kriegel, VLDB 1994 — reproduction "
    f"(scale={d.config.scale}, seed={d.config.seed})",
    scenarios.figures,
)

SCENARIOS = {
    s.name: s
    for s in (
        Scenario(
            "workload",
            "Run a batched mixed workload (window queries, point queries, "
            "inserts, deletes and a spatial join) through the shared buffer "
            "pool under one or more replacement policies and report "
            "per-phase I/O and hit rates.",
            "scale seed series organization buffer_pages policies queries "
            "no_join trace scheduler prefetch disks profile profile_out "
            "trace_out metrics_out",
            lambda a, d: f"batched workload — {a.organization} organization, "
            f"{d.label}, {a.buffer_pages}-page pool",
            scenarios.workload,
            queries=dict(help="window and point queries each"),
            disks=dict(default=1),
            profile_out=dict(
                help="write the raw cProfile pstats dump to PATH (implies "
                "--profile; with several policies a .<policy> suffix is added)"
            ),
        ),
        Scenario(
            "pagestore",
            "Measure declustered query execution: device time, response "
            "time and parallelism of window queries over the sharded page "
            "store, across disk counts and placements.",
            "scale seed series disks placements queries window_area",
            lambda a, d: f"sharded page store — {d.label}, "
            f"{a.queries} windows of {a.window_area:g} area",
            scenarios.pagestore,
            disks=dict(
                default="1,2,4,8", help="comma-separated disk counts", many=True
            ),
            queries=dict(help="window queries per configuration"),
        ),
        Scenario(
            "iosched",
            "Ablate the request-based I/O pipeline: two client sessions "
            "interleaved over a declustered store under each (scheduler, "
            "prefetch, admission) combination — device time, client "
            "response, queueing delay, p95, makespan and the speed-up of "
            "overlapped service over the synchronous baseline.",
            "scale seed series disks placement schedulers prefetch admission "
            "buffer_pages queries profile profile_out trace_out metrics_out",
            lambda a, d: f"I/O scheduler ablation — {d.label}, "
            f"{a.disks} disks ({a.placement}), 2 interleaved clients, "
            f"{a.buffer_pages}-page pool",
            scenarios.iosched,
            prefetch=dict(
                default="none,cluster", help="comma-separated prefetch policies",
                many=True,
            ),
            admission=dict(
                help="comma-separated admission policies applied to the "
                "overlap scheduler ('priority' marks the beta client as the "
                "analytics class); ignored for sync",
                many=True,
            ),
            queries=dict(default=40, help="window queries per client"),
        ),
        Scenario(
            "traffic",
            "Drive generated open-loop (Poisson/bursty/diurnal) or "
            "closed-loop think-time traffic, 10^4-10^5 sessions, through "
            "the virtual-clock scheduler and report per-class latency "
            "percentiles and throughput; --ablation compares admission "
            "policies at the base rate and at 10x overload.",
            "scale seed series sessions arrival rate ops_per_session think_ms "
            "disks placement buffer_pages admission ablation profile "
            "profile_out metrics_out",
            lambda a, d: f"traffic — {d.label}, "
            f"{a.sessions} sessions ({a.arrival}), {a.disks} disks "
            f"({a.placement}), {a.buffer_pages}-page pool",
            scenarios.traffic,
            buffer_pages=dict(default=512),
            admission=dict(
                help="admission policy ('priority' classifies generated "
                "sessions by their int-/ana- name prefix)"
            ),
        ),
        Scenario(
            "tiering",
            "Ablate the tiered page store: static vs access-driven "
            "migration between a small fast tier and the capacity tier, "
            "under a skewed window workload (most queries hammer a hot "
            "corner of the data space).",
            "scale seed series migrations fast_pages queries hot_fraction "
            "profile profile_out trace_out metrics_out",
            lambda a, d: f"tiered page store — {d.label}, "
            f"{a.queries} windows ({a.hot_fraction:.0%} on the hot "
            f"corner), {a.fast_pages}-page fast tier",
            scenarios.tiering,
            queries=dict(default=150),
        ),
        Scenario(
            "trace",
            "Trace a canonical two-client overlapped workload on the "
            "virtual clock, export a Chrome trace-event / Perfetto JSON "
            "timeline (one track per client session, one per disk arm) plus "
            "a metrics snapshot, and cross-check the exported per-disk span "
            "totals against the DiskStats device time.",
            "scale seed series disks placement scheduler prefetch admission "
            "buffer_pages queries trace_out metrics_out",
            lambda a, d: f"span trace — {d.label}, "
            f"{a.disks} disks ({a.placement}), "
            f"{a.scheduler} scheduler, {a.prefetch} prefetch, "
            "2 interleaved clients",
            scenarios.trace,
            scheduler=dict(default="overlap", help="I/O scheduler"),
            prefetch=dict(default="cluster"),
            admission=dict(
                help="admission policy on the overlap scheduler ('priority' "
                "marks the beta client as the analytics class)"
            ),
            queries=dict(default=20, help="window queries per client"),
            trace_out=dict(
                default="trace.json", help="Chrome trace-event JSON output path"
            ),
        ),
        Scenario(
            "storage",
            "Durability check of the file-backed page store: save a "
            "database to a real file, reopen it file-backed, cross-validate "
            "answers and simulated cost against the in-memory store "
            "(reporting measured wall-clock alongside), then crash an "
            "incremental save at sampled write boundaries (clean and torn) "
            "and verify recovery lands on the last committed checkpoint; a "
            "persistent bit flip must surface as PageCorruptionError.",
            "scale seed series queries path crash_points report_out metrics_out",
            lambda a, d: f"file-backed page store — {d.label}, {a.queries} windows",
            scenarios.storage,
            scale=dict(
                default=0.02,
                help="dataset scale in (0, 1] (small: the crash matrix "
                "re-saves the file once per sampled boundary)",
            ),
            queries=dict(
                default=40, help="window queries for the cross-validation",
                check=POSITIVE_INT,
            ),
            metrics_out=dict(
                help="write the file-backed store's metrics snapshot as JSON "
                "(store.checksum_failures, store.retries, recovery.*)"
            ),
        ),
        Scenario(
            "reorg",
            "Degrade a cluster database with online deletes (dead space "
            "accumulates in the cluster units), then run identical "
            "foreground traffic without and with paced background "
            "reorganization; report quality recovery, pages moved and "
            "foreground p95 interference.",
            "scale seed series sessions rate disks buffer_pages "
            "delete_fraction budget_pages rounds metrics_out",
            lambda a, d: f"background reorganization — {d.label}, "
            f"{a.sessions} sessions, {a.disks} disks, "
            # the fraction achieved on this map, not the one asked for
            f"{len(d.deleted(a.delete_fraction)[0]) / len(d.objects):.0%} deleted, "
            f"{a.rounds} rounds x {a.budget_pages} pages",
            scenarios.reorg,
            sessions=dict(
                default=2000, help="foreground sessions", check=POSITIVE_INT
            ),
            rate=dict(help="mean arrival rate in sessions per virtual second"),
            buffer_pages=dict(default=512),
            metrics_out=dict(
                help="write the with-reorg run's metrics snapshot as JSON "
                "(reorg.moved_pages, reorg.runs, write.* included)"
            ),
        ),
    )
}


def build_parser(scenario: Scenario) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=f"python -m repro.eval {scenario.name}".rstrip(),
        description=scenario.description,
    )
    for flag in scenario.flags:
        flag.add_to(parser)
    # Every declared flag has its ``args.<dest>``: None where this
    # scenario does not take it.
    parser.set_defaults(
        **dict.fromkeys(FLAGS.keys() - {flag.dest for flag in scenario.flags})
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    scenario = PAPER
    if argv and argv[0] in SCENARIOS:
        scenario, argv = SCENARIOS[argv[0]], argv[1:]
    parser = build_parser(scenario)
    args = parser.parse_args(argv)
    args.scenario = scenario.name  # `observed` labels its timeline with it
    knobs = {"seed": args.seed}
    if args.scale is not None:
        # Unset, the config's own default applies (REPRO_SCALE or 0.08)
        # and the environment is read only then.
        knobs["scale"] = args.scale
    config = ExperimentConfig(**knobs)
    dataset = ExperimentContext(config).dataset(args.series)
    print(format_header(scenario.header(args, dataset)))
    try:
        return scenario.run(args, dataset)
    except UsageError as exc:
        parser.error(str(exc))


if __name__ == "__main__":
    sys.exit(main())
