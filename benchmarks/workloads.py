"""The benchmark's four workloads and the seeded generator of their inputs.

Every workload is a closed loop: one process runs one item at a time and
starts the next item only when the previous one has returned.  A *pass* runs
every item of the workload once; each pass holds at least 100 items, so at
least ten lie beyond the 90th percentile of a pass's item times.

Inputs come only from ``generate(seed, work_dir)``: the same seed gives the
same networks, starts and scenario files.  The seed changes the random draws,
never the sizes or the mix of items, so runs with different seeds measure the
same amount of work.  The generator builds its own arrays with numpy rather
than calling ``fjpower.random_network``, so a change to the program cannot
change the benchmark's inputs.

Each item's time is measured twice over: as wall time, and scaled to a
reference machine speed by the gauge in ``speed.py``, which times a fixed
kernel just before and just after the item.  sparse_perception, whose steps
stream megabytes per call, is gauged with the streaming kernel; the other
workloads with the interpreter kernel.

Items call fjpower through module attributes (``perception.run_to_convergence``
and so on) at call time, so the tracer's wrappers and test doubles see them.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Any, Callable, Optional

import numpy as np

import speed

import fjpower.analysis as analysis
import fjpower.cli as cli
import fjpower.fj_core as fj_core
import fjpower.network as network
import fjpower.perception as perception
import fjpower.scenario as scenario
import fjpower.simkit as simkit

ROOT = Path(__file__).resolve().parent.parent
BUNDLED_DIRS = (ROOT / "scenarios", ROOT / "scenarios" / "star_partial")

RA, NO_RA, PAGERANK = "ra", "no_ra", "pagerank"
HOMOGENEOUS = "homogeneous"
SPARSE_DEGREE = 20           # random positive entries per row of C
HOMOGENEOUS_A = 0.5          # the shared susceptibility of homogeneous networks
CRITERION_TOL = 1e-8         # agreement required by acceptance criteria 1 and 2
# Dense and generated-scenario networks draw susceptibilities below 0.8:
# reflected-appraisal runs from the simplex then converged on every one of
# 7000 sampled small networks, where with 0.9 or 0.95 about one in a thousand
# diverged.
CONVERGENT_A_HIGH = 0.8


@dataclass
class PassResult:
    """One pass, in item order.  Times leave out the gauge's kernel runs;
    the ``ref_`` times are scaled to the gauge's reference speed."""

    wall_s: float
    ref_wall_s: float
    item_s: list[float]
    ref_item_s: list[float]
    outputs: list[Any]


def _pass_result(gauge, elapsed, calls, n_items, outputs) -> PassResult:
    """Sum the timed calls of each item, raw and scaled.

    ``calls`` holds (item index, gauge sample taken before the call, seconds).
    Time outside the calls (loop, CLI parsing, printing) is scaled by the
    pass's median speed."""
    item_s, ref_item_s = [0.0] * n_items, [0.0] * n_items
    for k, j, seconds in calls:
        item_s[k] += seconds
        ref_item_s[k] += seconds * gauge.scale(j)
    wall = elapsed - gauge.spent_s
    ref_wall = sum(ref_item_s) + gauge.scale_rest(wall - sum(item_s))
    return PassResult(wall, ref_wall, item_s, ref_item_s, outputs)


@dataclass
class ItemError:
    """An item that raised instead of returning an output."""

    message: str


@dataclass(frozen=True)
class Workload:
    name: str
    why: str                                   # one line, as in BENCHMARK.json
    rationale: str                             # why it was chosen, in full
    generate: Callable[[int, Path], Any]       # (seed, work dir) -> inputs
    build: Callable[[Any], Any]                # inputs -> program objects
    run_first: Callable[[Any], Any]            # the cold first item
    run_pass: Callable[[Any, Any], PassResult]  # (state, tracer or None)
    check: Callable[[Any, list], list]         # outputs -> failure message or None per item


# ---------------------------------------------------------------------------
# seeded arrays
# ---------------------------------------------------------------------------

def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng([seed, tag])


def _susceptibilities(rng, n, high=0.95, full_prob=0.2, shared=None) -> np.ndarray:
    """Uniform in [0, high), each node fully stubborn with probability
    ``full_prob`` and at least one node partially stubborn; or one shared value."""
    if shared is not None:
        return np.full(n, shared)
    a = rng.uniform(0.0, high, size=n)
    a[rng.uniform(size=n) < full_prob] = 0.0
    if not a.any():
        a[int(rng.integers(n))] = rng.uniform(0.05, high)
    return a


def _sparse_c(rng, n, degree=SPARSE_DEGREE) -> np.ndarray:
    """Row-stochastic, zero-diagonal C with ``degree`` random entries per row."""
    degree = min(degree, n - 1)
    C = np.zeros((n, n))
    for i in range(n):
        cols = rng.choice(n - 1, size=degree, replace=False)
        cols += cols >= i
        w = rng.uniform(0.1, 1.0, size=degree)
        C[i, cols] = w / w.sum()
    return C


def _dense_c(rng, n) -> np.ndarray:
    """Row-stochastic, zero-diagonal C with every off-diagonal entry positive."""
    M = rng.uniform(0.1, 1.0, size=(n, n))
    np.fill_diagonal(M, 0.0)
    return M / M.sum(axis=1)[:, None]


def _stepper(kind: str, net, gamma=None) -> Callable[[np.ndarray], np.ndarray]:
    """The centralized map of one perception rule on ``net``."""
    if kind == RA:
        return lambda v: perception.step_perception_ra(net, v)
    if kind == NO_RA:
        return lambda v: perception.step_perception_no_ra(net, gamma, v)
    return lambda v: perception.step_pagerank_ra(net, v)


def _error(exc: Exception) -> ItemError:
    return ItemError(f"{type(exc).__name__}: {exc}")


def _item_pass(items, run_item, tracer, kernel=speed.kernel_s) -> PassResult:
    """Run every item once, in order, timing each one."""
    gauge = speed.Gauge(kernel)
    calls, outputs = [], []
    start = perf_counter()
    for idx, item in enumerate(items):
        j = gauge.sample()
        if tracer is not None:
            tracer.begin_item(idx)
        t0 = perf_counter()
        try:
            out = run_item(item)
        except Exception as exc:  # noqa: BLE001 — a raising item is a failed item
            out = _error(exc)
        calls.append((idx, j, perf_counter() - t0))
        if tracer is not None:
            tracer.end_item()
        outputs.append(out)
    gauge.sample()
    return _pass_result(gauge, perf_counter() - start, calls, len(items), outputs)


@dataclass
class Item:
    """One run: a network, the rule to iterate, a start and (no-RA) self-weights."""

    n: int
    kind: str
    net_key: tuple
    p0: np.ndarray
    gamma: Optional[np.ndarray] = None
    net: Any = None
    reference: Any = None   # cached outside the timed region, by the check


def _network_pool(rng, plan, pool, gamma_high) -> tuple[dict, list[Item]]:
    """Arrays of the sparse networks the plan needs and the items that use them.

    ``plan`` rows are (n, kind, items).  Items of one n cycle over ``pool[n]``
    networks of their family: heterogeneous susceptibilities for RA and no-RA,
    one shared susceptibility for PageRank / homogeneous runs.  No-RA items draw
    self-weights uniformly from [0, gamma_high).
    """
    arrays: dict[tuple, tuple] = {}
    items: list[Item] = []
    for n, kind, count in plan:
        shared = HOMOGENEOUS_A if kind in (PAGERANK, HOMOGENEOUS) else None
        for k in range(count):
            key = (n, shared, k % pool[n])
            if key not in arrays:
                arrays[key] = (_sparse_c(rng, n), _susceptibilities(rng, n, shared=shared))
            gamma = rng.uniform(0.0, gamma_high, size=n) if kind == NO_RA else None
            items.append(Item(n, kind, key, rng.dirichlet(np.ones(n)), gamma))
    return arrays, items


def _build_networks(inputs) -> list[Item]:
    """Construct every InfluenceNetwork and attach it to its items; the
    generated arrays are released as they are consumed, so the arrays and the
    networks never coexist in full."""
    arrays, items = inputs
    nets = {}
    for key in list(arrays):
        C, a = arrays.pop(key)
        nets[key] = network.InfluenceNetwork(C=C, a=a)
    for item in items:
        item.net = nets[item.net_key]
    return items


# ---------------------------------------------------------------------------
# sparse_perception
# ---------------------------------------------------------------------------

SPARSE_WHY = "sparse ~20-per-row networks, n=300..3000, centralized RA/no-RA/PageRank runs to convergence"
SPARSE_RATIONALE = """\
Sparse networks with about 20 entries per row of C, at n from 300 to 3000.
One item is one run_to_convergence trajectory of the step_perception_ra,
step_perception_no_ra or step_pagerank_ra stepper.  The dense O(n^2) relay
reduction dominates: one step costs about 23 ms at n = 3000.  The no-RA runs
take several times more steps than the RA runs, so the loop that records each
state and applies the stop rule also carries weight.  This is where sparse
O(nnz) kernels should show.

The mix keeps a pass of 100 items to a few seconds and puts each percentile
inside a block of like items, so that it does not jump between item kinds
from seed to seed: the median falls among the n = 300 RA runs and the 90th
percentile near the middle of the eight n = 1500 RA runs, with the six
costlier RA runs beyond it.  The no-RA runs are all at n = 300, where the
loop's share of a run is largest, and are spread over many networks: their
step counts depend on the drawn self-weights far more than those of the RA
runs do, and at large n a few of them would set items_per_s by themselves."""

SPARSE_PLAN = (  # (n, stepper, items per pass), roughly cheapest first
    (300, PAGERANK, 20), (300, RA, 40), (600, PAGERANK, 10),
    (600, RA, 6), (300, NO_RA, 10),
    (1500, RA, 8),
    (2000, RA, 5), (3000, RA, 1),
)
SPARSE_POOL = {300: 10, 600: 6, 1500: 2, 2000: 1, 3000: 1}  # networks per (n, family)


def _sparse_generate(seed, work_dir):
    return _network_pool(_rng(seed, 1), SPARSE_PLAN, SPARSE_POOL, gamma_high=1.0)


def _sparse_run(item: Item):
    return perception.run_to_convergence(_stepper(item.kind, item.net, item.gamma), item.p0)


def _sparse_check(items, outputs) -> list:
    return [_sparse_failure(item, traj) for item, traj in zip(items, outputs)]


def _sparse_failure(item: Item, traj) -> Optional[str]:
    if isinstance(traj, ItemError):
        return traj.message
    if not traj.converged:
        return f"n={item.n} {item.kind}: status {traj.status}"
    final = traj.final
    residual = float(np.max(np.abs(_stepper(item.kind, item.net, item.gamma)(final) - final)))
    if not residual <= 10 * traj.tol:
        return f"n={item.n} {item.kind}: fixed-point residual {residual:.3e} > 10*tol"
    if item.kind == NO_RA:
        if item.reference is None:
            item.reference = fj_core.compute_social_power(item.net, item.gamma)
        gap = float(np.max(np.abs(final - item.reference)))
        if not gap <= CRITERION_TOL:
            return f"n={item.n} no_ra: limit off the direct solve by {gap:.3e}"
    return None


SPARSE_PERCEPTION = Workload(
    name="sparse_perception",
    why=SPARSE_WHY,
    rationale=SPARSE_RATIONALE,
    generate=_sparse_generate,
    build=_build_networks,
    run_first=lambda items: _sparse_run(items[0]),
    run_pass=lambda items, tracer: _item_pass(
        items, _sparse_run, tracer, kernel=speed.stream_kernel_s),
    check=_sparse_check,
)


# ---------------------------------------------------------------------------
# distributed_rounds
# ---------------------------------------------------------------------------

DIST_WHY = "message-passing runs (ra, no_ra, homogeneous) on sparse networks, n=100..2000; per-message Python work"
DIST_RATIONALE = """\
Networks of the sparse_perception family at n = 100...2000.  One item is one
run_distributed run in ra, no_ra or homogeneous mode.  Python work per
message (about 0.9 us at n = 500) dominates, together with the O(n)
neighbour scans per node in deliver and build_local_views.  No vectorized
kernel runs inside the timed region.  This workload shows changes to the
message fabric and the views, and a vectorized-kernel change should not move
it.

Self-weights of the no_ra runs are drawn from [0, 0.5] so that a no_ra run
takes a few dozen rounds rather than hundreds, which keeps a pass of 100
items to a few seconds.  As in sparse_perception, each percentile falls
inside a block of like items: the median among the n = 100 homogeneous runs,
the 90th percentile near the middle of the twelve n = 500 homogeneous runs,
whose round counts vary least from network to network."""

DIST_PLAN = (  # (n, mode, items per pass), roughly cheapest first
    (100, HOMOGENEOUS, 60), (100, RA, 12), (100, NO_RA, 12),
    (500, HOMOGENEOUS, 12),
    (1000, HOMOGENEOUS, 1), (1000, RA, 1), (1500, HOMOGENEOUS, 1), (2000, HOMOGENEOUS, 1),
)
DIST_POOL = {100: 30, 500: 6, 1000: 1, 1500: 1, 2000: 1}
TWIN = {RA: RA, NO_RA: NO_RA, HOMOGENEOUS: PAGERANK}   # centralized stepper of each mode


def _dist_generate(seed, work_dir):
    return _network_pool(_rng(seed, 2), DIST_PLAN, DIST_POOL, gamma_high=0.5)


def _dist_run(item: Item):
    return simkit.run_distributed(item.net, item.kind, item.p0, item.gamma)


def _dist_pass(items, tracer) -> PassResult:
    """Run every item, recording how many messages each round delivered."""
    per_round: list[int] = []
    deliver = simkit.deliver

    def counting_deliver(*args, **kwargs):
        count = deliver(*args, **kwargs)
        per_round.append(count)
        return count

    marks = []

    def run(item):
        marks.append(len(per_round))
        return _dist_run(item)

    simkit.deliver = counting_deliver
    try:
        result = _item_pass(items, run, tracer)
    finally:
        simkit.deliver = deliver
    marks.append(len(per_round))
    result.outputs = [
        (out, per_round[lo:hi]) for out, lo, hi in zip(result.outputs, marks, marks[1:])
    ]
    return result


def _dist_check(items, outputs) -> list:
    return [_dist_failure(item, traj, rounds) for item, (traj, rounds) in zip(items, outputs)]


def _dist_failure(item: Item, traj, rounds) -> Optional[str]:
    label = f"n={item.n} {item.kind}"
    if isinstance(traj, ItemError):
        return traj.message
    if item.reference is None:
        item.reference = perception.run_to_convergence(
            _stepper(TWIN[item.kind], item.net, item.gamma), item.p0)
    ref = item.reference
    if traj.status != ref.status or not np.array_equal(traj.path, ref.path):
        return f"{label}: path differs from the centralized stepper's"
    if len(rounds) != traj.iterations:
        return f"{label}: {len(rounds)} deliveries for {traj.iterations} rounds"
    nnz = int(np.count_nonzero(item.net.C))
    if any(count != nnz for count in rounds):
        return f"{label}: a round delivered {sorted(set(rounds))} messages, nnz(C) = {nnz}"
    return None


DISTRIBUTED_ROUNDS = Workload(
    name="distributed_rounds",
    why=DIST_WHY,
    rationale=DIST_RATIONALE,
    generate=_dist_generate,
    build=_build_networks,
    run_first=lambda items: _dist_run(items[0]),
    run_pass=_dist_pass,
    check=_dist_check,
)


# ---------------------------------------------------------------------------
# dense_analysis
# ---------------------------------------------------------------------------

DENSE_WHY = "equilibrium analysis of dense networks: 85 at n=3..8 (per-call overhead), 15 at n=100..300 (O(n^3) LU)"
DENSE_RATIONALE = """\
Dense networks, mostly at n = 3...8 (the scale of acceptance criterion 5),
with a few at n = 100...300.  One item is one network put through
solve_equilibrium (20 multistarts), step_perception_ra to convergence from
the barycenter, check_condition for the conditions that apply,
check_dominance_necessary, one_step_invariance_test with 10 000 samples on
nonneg_box, and contraction_diagnostic with the finite-difference check at
p*.  LU solves, BLAS batches and perception steps on dense C dominate.  The
small networks measure overhead per call (p50) and the large ones measure
O(n^3) work (p90): the 90th percentile falls among the eight n = 150
networks.  A sparse-kernel change that slows dense inputs would show here.
BLAS runs one thread: with two (OpenBLAS 0.3.31 on a 2-vCPU virtual machine),
every call at n >= 100 that follows a pause waited about 0.1 s for the
threads to wake, which would swamp the work."""

DENSE_SMALL = tuple(3 + k % 6 for k in range(85))
DENSE_LARGE = (100,) + (150,) * 8 + (200,) * 3 + (300,) * 3
# A dense random network with n >= 3 is never a star and its susceptibilities
# are never all equal, so these are the conditions that apply.
GENERAL_CONDITIONS = (
    analysis.INCOMING_INFLUENCE_CAP,
    analysis.INCOMING_VOLATILITY_CAP,
    analysis.DEMOCRACY,
    analysis.UNIFORM_GAIN_CAP,
)
INVARIANCE_SAMPLES = 10_000
DOMINANCE_SIGMA = 0.5


def _dense_generate(seed, work_dir):
    rng = _rng(seed, 3)
    arrays, items = {}, []
    for k, n in enumerate(DENSE_SMALL + DENSE_LARGE):
        arrays[(n, k)] = (_dense_c(rng, n), _susceptibilities(rng, n, high=CONVERGENT_A_HIGH))
        items.append(Item(n, "dense", (n, k), np.full(n, 1.0 / n)))
    return arrays, items


@dataclass
class DenseOutput:
    equilibrium: Any
    ra: Any
    conditions: dict
    dominance: Any
    invariance: Any
    contraction: float


def _dense_run(item: Item) -> DenseOutput:
    net = item.net
    eq = analysis.solve_equilibrium(net, multistarts=20)
    ra = perception.run_to_convergence(_stepper(RA, net), item.p0)
    conditions = {cid: analysis.check_condition(net, cid) for cid in GENERAL_CONDITIONS}
    dominance = analysis.check_dominance_necessary(
        net, eq.p_star, int(np.argmax(eq.p_star)), DOMINANCE_SIGMA)
    invariance = analysis.one_step_invariance_test(
        net, analysis.nonneg_box(net), INVARIANCE_SAMPLES)
    contraction = analysis.contraction_diagnostic(net, eq.p_star, verify_fd=True)
    return DenseOutput(eq, ra, conditions, dominance, invariance, contraction)


def _dense_check(items, outputs) -> list:
    return [_dense_failure(item, out) for item, out in zip(items, outputs)]


def _dense_failure(item: Item, out) -> Optional[str]:
    label = f"n={item.n}"
    if isinstance(out, ItemError):
        return out.message
    eq = out.equilibrium
    if eq.starts_agreeing != eq.total_starts:
        return f"{label}: {eq.starts_agreeing}/{eq.total_starts} starts agree"
    if not (eq.in_simplex and eq.interior):
        return f"{label}: consensus not in the interior of the simplex"
    if not out.ra.converged:
        return f"{label}: RA run {out.ra.status}"
    gap = float(np.max(np.abs(out.ra.final - eq.p_star)))
    if not gap <= CRITERION_TOL:
        return f"{label}: RA limit off p* by {gap:.3e}"
    if out.conditions[analysis.INCOMING_INFLUENCE_CAP].holds and out.invariance.exit_count:
        return f"{label}: nonneg_box leaked {out.invariance.exit_count} exits under the cap"
    if not np.isfinite(out.contraction):
        return f"{label}: contraction diagnostic {out.contraction}"
    return None


DENSE_ANALYSIS = Workload(
    name="dense_analysis",
    why=DENSE_WHY,
    rationale=DENSE_RATIONALE,
    generate=_dense_generate,
    build=_build_networks,
    run_first=lambda items: _dense_run(items[0]),
    run_pass=lambda items, tracer: _item_pass(items, _dense_run, tracer),
    check=_dense_check,
)


# ---------------------------------------------------------------------------
# scenario_files
# ---------------------------------------------------------------------------

SCEN_WHY = "all 15 bundled scenarios plus 85 generated files (10 modes, n=2..60) through cli batch; YAML and CSV bound"
SCEN_RATIONALE = """\
All 15 bundled scenarios plus seeded generated scenario files.  The generated
files cover all 10 modes at n = 2...60 and request every output kind.  The
pass runs them through fjpower.cli.main(["batch", ...]) in-process, one call
per directory, and one item is one scenario: its load plus its run.
Networks are tiny, so the time goes to YAML parsing, CSV formatting and
per-call overhead, not to kernels.  This workload shows changes to scenario
and cli, and a kernel change should not move it.  The loader is pure-Python
yaml.safe_load, although libyaml is installed: load_scenario takes about
1.5 ms on a 3-node file and about 130 ms at n = 50.

Every mode gets a file at each of GEN_SIZES and every other mode one more at
n = 60.  A generated item's cost follows its file size, so the five n = 60
files lie beyond the 90th percentile and it falls in the middle of the ten
n = 40 files."""

GEN_SIZES = (2, 3, 4, 6, 9, 14, 22, 40)
GEN_LARGE = 60
# At most four entries per row of C: the file still holds n^2 numbers to
# parse, but the distributed modes stay cheap, so the cost of a generated item
# follows its file size whatever its mode.
GEN_DEGREE = 4
GEN_CONDITIONS = ", ".join(GENERAL_CONDITIONS)
DIVERGING_BUNDLED = {"star_partial_c"}
POWER_MODES = ("social_power", "perception_no_ra", "distributed_no_ra")  # criterion 1


def _vec(v) -> str:
    return "[" + ", ".join(repr(float(x)) for x in v) + "]"


def _scenario_text(name, mode, C, a, gamma, p0) -> str:
    lines = [f"name: {name}", "network:", "  C:"]
    lines += [f"    - {_vec(row)}" for row in C]
    lines.append(f"  a: {_vec(a)}")
    if gamma is not None:
        lines.append(f"gamma: {_vec(gamma)}")
    lines.append(f"mode: {mode}")
    if p0 is not None:
        lines += ["initial:", f"  p0: {_vec(p0)}"]
    conditions = GEN_CONDITIONS
    if mode == "pagerank_ra":
        conditions += ", " + analysis.HOMOGENEOUS_CAP
    lines += [
        "outputs:",
        "  - trajectory_csv",
        "  - equilibrium_report",
        f"  - condition_report: [{conditions}]",
        "  - invariant_test: {samples: 1000, box: nonneg}",
    ]
    return "\n".join(lines) + "\n"


@dataclass
class ScenarioState:
    dirs: tuple[Path, ...]
    paths: list[Path]                  # item order: directory by directory, sorted
    expected: dict[str, str]           # scenario name -> status
    out_dir: Path
    csv_reference: dict = field(default_factory=dict)   # name -> digests, first pass
    scenarios: dict = field(default_factory=dict)       # name -> Scenario, as loaded


def _scen_generate(seed, work_dir: Path):
    rng = _rng(seed, 4)
    gen_dir = work_dir / "generated"
    gen_dir.mkdir(parents=True, exist_ok=True)
    for k, mode in enumerate(scenario.MODES):
        for n in GEN_SIZES + ((GEN_LARGE,) if k % 2 == 0 else ()):
            shared = rng.uniform(0.2, 0.8) if mode == "pagerank_ra" else None
            C = _sparse_c(rng, n, degree=GEN_DEGREE)
            a = _susceptibilities(rng, n, high=CONVERGENT_A_HIGH, shared=shared)
            gamma = rng.uniform(0.0, 0.5, size=n) if mode in scenario.GAMMA_MODES else None
            if mode == "social_power":
                p0 = None
            elif mode == "fj_opinions":
                p0 = rng.uniform(0.0, 1.0, size=n)
            else:
                p0 = rng.dirichlet(np.ones(n))
            name = f"gen_{mode}_n{n:02d}"
            (gen_dir / f"{name}.yaml").write_text(_scenario_text(name, mode, C, a, gamma, p0))
    return work_dir


def _scen_build(work_dir: Path) -> ScenarioState:
    dirs = BUNDLED_DIRS + (work_dir / "generated",)
    paths = [p for d in dirs for p in sorted(d.iterdir()) if p.suffix in cli.SCENARIO_SUFFIXES]
    expected = {
        p.stem: scenario.DIVERGED if p.stem in DIVERGING_BUNDLED else scenario.CONVERGED
        for p in paths
    }
    return ScenarioState(dirs, paths, expected, work_dir / "out")


def _quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _scen_first(state: ScenarioState):
    return _quiet_main(["run", str(state.paths[0]), "--out", str(state.out_dir)])


def _scen_pass(state: ScenarioState, tracer) -> PassResult:
    """One ``batch`` call per directory; an item's time is its load plus its run,
    measured by wrapping the names the CLI and the batch runner call."""
    index = {p.stem: k for k, p in enumerate(state.paths)}
    calls: list[tuple] = []
    results: dict[int, Any] = {}
    load, run = cli.load_scenario, scenario.run_scenario
    gauge = speed.Gauge()

    def timed(fn, key, record):
        def wrapper(*args, **kwargs):
            k = index[key(args)]
            j = gauge.sample()
            if tracer is not None:
                tracer.item = k
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                calls.append((k, j, perf_counter() - t0))
                if tracer is not None:
                    tracer.item = None
            record(k, out)
            return out
        return wrapper

    def keep_scenario(k, scn):
        state.scenarios[scn.name] = scn

    def keep_result(k, res):
        results[k] = res

    cli.load_scenario = timed(load, lambda args: Path(args[0]).stem, keep_scenario)
    # run_batch imports run_scenario from the scenario module at call time
    scenario.run_scenario = timed(run, lambda args: args[0].name, keep_result)
    try:
        start = perf_counter()
        for d in state.dirs:
            _quiet_main(["batch", str(d), "--out", str(state.out_dir)])
        gauge.sample()
        elapsed = perf_counter() - start
    finally:
        cli.load_scenario, scenario.run_scenario = load, run
    outputs = []
    for k in range(len(state.paths)):
        res = results.get(k)
        digests = None
        if res is not None:
            digests = {Path(a).name: hashlib.sha256(Path(a).read_bytes()).hexdigest()
                       for a in res.artifacts if a.endswith(".csv")}
        outputs.append((res, digests))
    return _pass_result(gauge, elapsed, calls, len(state.paths), outputs)


def _scen_check(state: ScenarioState, outputs) -> list:
    return [_scen_failure(state, path, res, digests)
            for path, (res, digests) in zip(state.paths, outputs)]


def _scen_failure(state: ScenarioState, path: Path, res, digests) -> Optional[str]:
    name = path.stem
    if res is None:
        return f"{name}: no result"
    if res.status != state.expected[name]:
        return f"{name}: status {res.status}, expected {state.expected[name]} ({res.error})"
    reference = state.csv_reference.setdefault(name, digests)
    if digests != reference:
        return f"{name}: CSV artifacts differ from the first pass"
    if res.mode in POWER_MODES:
        scn = state.scenarios[name]
        target = fj_core.compute_social_power(scn.net, scn.gamma)
        gap = max(float(np.max(np.abs(t.final - target))) for t in res.trajectories)
        if not gap <= CRITERION_TOL:
            return f"{name}: final off compute_social_power by {gap:.3e}"
    return None


SCENARIO_FILES = Workload(
    name="scenario_files",
    why=SCEN_WHY,
    rationale=SCEN_RATIONALE,
    generate=_scen_generate,
    build=_scen_build,
    run_first=_scen_first,
    run_pass=_scen_pass,
    check=_scen_check,
)


WORKLOADS = {
    w.name: w
    for w in (SCENARIO_FILES, SPARSE_PERCEPTION, DISTRIBUTED_ROUNDS, DENSE_ANALYSIS)
}
