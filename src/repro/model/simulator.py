"""Steady-state workload simulator.

Given a set of concurrently running queries — each with an
:class:`~repro.model.streams.AccessProfile`, a core allocation and a CAT
capacity bitmask — the simulator solves the coupled fixed point of

* per-query throughput,
* LLC occupancy / hit ratios per way-mask segment (Che approximation),
* DRAM bandwidth grants (max-min fair arbitration),

and reports per-query throughput, time breakdowns and PCM-style
counters.  This mirrors the paper's measurement method: queries run
repeatedly ("for 90 seconds"), so the interesting quantity is the
steady-state rate, not a single execution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import functools
import math

import numpy as np

from ..config import SystemSpec
from ..errors import ModelError
from ..obs import runtime
from .bandwidth import BandwidthUsage, solve_bandwidth
from .calibration import DEFAULT_CALIBRATION, Calibration
from .latency import LatencyModel
from .occupancy import solve_characteristic_time_arrays
from .segments import decompose_masks
from .streams import AccessProfile


@dataclass(frozen=True)
class QuerySpec:
    """A query instance participating in a simulated workload."""

    name: str
    profile: AccessProfile
    cores: int
    mask: int

    def __post_init__(self) -> None:
        if self.cores <= 0:
            raise ModelError(f"query {self.name!r}: cores must be > 0")
        if self.mask <= 0:
            raise ModelError(f"query {self.name!r}: mask must be non-zero")


@dataclass
class CounterRates:
    """Per-second hardware-counter rates (PCM analogue)."""

    instructions_per_s: float = 0.0
    llc_references_per_s: float = 0.0
    llc_hits_per_s: float = 0.0

    @property
    def llc_misses_per_s(self) -> float:
        return self.llc_references_per_s - self.llc_hits_per_s

    @property
    def llc_hit_ratio(self) -> float:
        if self.llc_references_per_s <= 0:
            return 0.0
        return self.llc_hits_per_s / self.llc_references_per_s

    @property
    def misses_per_instruction(self) -> float:
        if self.instructions_per_s <= 0:
            return 0.0
        return self.llc_misses_per_s / self.instructions_per_s

    def combined(self, other: "CounterRates") -> "CounterRates":
        return CounterRates(
            self.instructions_per_s + other.instructions_per_s,
            self.llc_references_per_s + other.llc_references_per_s,
            self.llc_hits_per_s + other.llc_hits_per_s,
        )

    def to_dict(self) -> dict:
        """JSON-serializable form (exact float round trip)."""
        return {
            "instructions_per_s": self.instructions_per_s,
            "llc_references_per_s": self.llc_references_per_s,
            "llc_hits_per_s": self.llc_hits_per_s,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "CounterRates":
        return cls(
            instructions_per_s=payload["instructions_per_s"],
            llc_references_per_s=payload["llc_references_per_s"],
            llc_hits_per_s=payload["llc_hits_per_s"],
        )


@dataclass
class QueryResult:
    """Simulation outcome for one query."""

    name: str
    throughput_tuples_per_s: float
    per_tuple_seconds: float
    queries_per_s: float
    region_hit_ratios: dict[str, float] = field(default_factory=dict)
    region_l2_fractions: dict[str, float] = field(default_factory=dict)
    time_breakdown: dict[str, float] = field(default_factory=dict)
    dram_bytes_per_s: float = 0.0
    bandwidth_slowdown: float = 1.0
    counters: CounterRates = field(default_factory=CounterRates)

    def to_dict(self) -> dict:
        """JSON-serializable form, exact to the last float bit.

        JSON serializes floats via ``repr``, which round-trips every
        finite IEEE-754 double exactly — the simulation cache relies
        on this to keep cached reruns byte-identical to cold solves.
        """
        return {
            "name": self.name,
            "throughput_tuples_per_s": self.throughput_tuples_per_s,
            "per_tuple_seconds": self.per_tuple_seconds,
            "queries_per_s": self.queries_per_s,
            "region_hit_ratios": dict(self.region_hit_ratios),
            "region_l2_fractions": dict(self.region_l2_fractions),
            "time_breakdown": dict(self.time_breakdown),
            "dram_bytes_per_s": self.dram_bytes_per_s,
            "bandwidth_slowdown": self.bandwidth_slowdown,
            "counters": self.counters.to_dict(),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "QueryResult":
        return cls(
            name=payload["name"],
            throughput_tuples_per_s=payload["throughput_tuples_per_s"],
            per_tuple_seconds=payload["per_tuple_seconds"],
            queries_per_s=payload["queries_per_s"],
            region_hit_ratios=dict(payload["region_hit_ratios"]),
            region_l2_fractions=dict(payload["region_l2_fractions"]),
            time_breakdown=dict(payload["time_breakdown"]),
            dram_bytes_per_s=payload["dram_bytes_per_s"],
            bandwidth_slowdown=payload["bandwidth_slowdown"],
            counters=CounterRates.from_dict(payload["counters"]),
        )


#: Solve/re-place passes per fixed-point round on a multi-segment
#: composition: the greedy placement re-reads the segments'
#: characteristic times twice before the final blend.
_PLACEMENT_PASSES = 3

#: Residual differences Anderson mixing keeps (Walker & Ni, 2011).
_ANDERSON_MEMORY = 3

#: Largest log-throughput move an extrapolated step may make (a
#: factor of e^10); anything beyond, or non-finite, falls back to the
#: damped step.
_MAX_LOG_STEP = 10.0

#: A multi-segment solve whose residual has not reached a new low for
#: this many rounds is treated as a placement limit cycle.
_STALL_ROUNDS = 5

#: Longest limit-cycle period searched for (in rounds), the largest
#: log-throughput difference that counts as a repeat, and the most
#: settling rounds spent waiting for an exact repeat.
_MAX_CYCLE_PERIOD = 16
_CYCLE_GAP = 1e-7
_SETTLE_ROUNDS = 80


class _AndersonMixer:
    """Anderson acceleration of a fixed point ``x -> x + f(x)``.

    Type-II Anderson mixing with mixing parameter ``beta``: the next
    iterate is ``x + beta*f - (dX + beta*dF) @ gamma`` where ``gamma``
    least-squares fits the current residual ``f`` by the last
    ``memory`` residual differences ``dF``.  The history is dropped
    whenever the residual grows or a step comes out non-finite (or
    moves a log-throughput by more than ``_MAX_LOG_STEP``), so the
    worst case is the plain damped step ``x + beta*f``.  Pure Python:
    the vectors hold one entry per query.
    """

    def __init__(self, memory: int, beta: float) -> None:
        self.memory = memory
        self.beta = beta
        self.reset()

    def reset(self) -> None:
        self._dx: list[list[float]] = []
        self._df: list[list[float]] = []
        self._last: tuple | None = None
        self._last_residual = math.inf

    def step(
        self, x: list[float], f: list[float], residual: float
    ) -> list[float]:
        if residual > self._last_residual:
            self.reset()
        self._last_residual = residual
        if self._last is not None:
            last_x, last_f = self._last
            self._dx.append([a - b for a, b in zip(x, last_x)])
            self._df.append([a - b for a, b in zip(f, last_f)])
            if len(self._dx) > self.memory:
                del self._dx[0], self._df[0]
        self._last = (x, f)
        beta = self.beta
        damped = [a + beta * b for a, b in zip(x, f)]
        gamma = _least_squares(self._df, f)
        if not gamma:
            return damped
        mixed = damped
        kept = len(self._dx) - len(gamma)
        for weight, dx, df in zip(
            gamma, self._dx[kept:], self._df[kept:]
        ):
            mixed = [
                value - weight * (a + beta * b)
                for value, a, b in zip(mixed, dx, df)
            ]
        if all(
            abs(value - a) <= _MAX_LOG_STEP for value, a in zip(mixed, x)
        ):
            return mixed
        self.reset()
        self._last = (x, f)
        return damped


def _least_squares(
    columns: list[list[float]], target: list[float]
) -> list[float]:
    """``argmin_g |target - sum_j g_j columns[j]|`` for a few columns.

    Solves the normal equations by Gaussian elimination with partial
    pivoting (at most ``_ANDERSON_MEMORY`` unknowns, so no LAPACK
    call).  Near-dependent columns are dropped oldest first; returns
    the coefficients for the kept (newest) columns, aligned to the end
    of ``columns`` — an empty list when none are usable.
    """
    while columns:
        size = len(columns)
        gram = [
            [sum(a * b for a, b in zip(ci, cj)) for cj in columns]
            + [sum(a * b for a, b in zip(ci, target))]
            for ci in columns
        ]
        scale = max(gram[i][i] for i in range(size))
        singular = not scale > 0.0 or not math.isfinite(scale)
        for col in range(size):
            if singular:
                break
            pivot = max(range(col, size), key=lambda r: abs(gram[r][col]))
            if abs(gram[pivot][col]) <= 1e-12 * scale:
                singular = True
                break
            gram[col], gram[pivot] = gram[pivot], gram[col]
            for row in range(col + 1, size):
                factor = gram[row][col] / gram[col][col]
                for k in range(col, size + 1):
                    gram[row][k] -= factor * gram[col][k]
        if not singular:
            gamma = [0.0] * size
            for row in range(size - 1, -1, -1):
                tail = sum(
                    gram[row][k] * gamma[k] for k in range(row + 1, size)
                )
                gamma[row] = (gram[row][size] - tail) / gram[row][row]
            return gamma
        columns = columns[1:]
    return []


class _CycleDetector:
    """Pins down a multi-segment solve stuck in a placement limit cycle.

    The greedy re-placement orders segments and regions by sorts, so
    the occupancy map is discontinuous: near a sort tie the iterates
    can hop between orderings forever, with the residual stuck well
    above tolerance.  After ``_STALL_ROUNDS`` rounds without a new
    residual low the solve *settles*: it takes undamped steps
    ``x <- x + f`` (no mixing), which lock onto the map's periodic
    orbit within a few rounds because the map is nearly flat between
    sort ties.  Once the log-throughput repeats with some period ``p``
    to within ``_CYCLE_GAP``, the placement weights are averaged over
    exactly those ``p`` rounds.  The snapshots are summed exactly
    (``math.fsum``), so the mean is the same whichever phase of the
    orbit the detector happened to start at.
    """

    def __init__(self) -> None:
        self._best = math.inf
        self._stalled = 0
        self._history: list[tuple[list[float], list]] | None = None

    @property
    def settling(self) -> bool:
        return self._history is not None

    def observe(
        self, residual: float, log_rates: list[float], weights: list
    ) -> list | None:
        """Record one round; returns the frozen weights once the cycle
        is pinned down, None until then."""
        history = self._history
        if history is None:
            if residual < self._best:
                self._best = residual
                self._stalled = 0
            else:
                self._stalled += 1
                if self._stalled >= _STALL_ROUNDS:
                    self._history = []
            return None
        history.append((log_rates, weights))
        gaps = {
            period: max(
                abs(a - b)
                for a, b in zip(log_rates, history[-1 - period][0])
            )
            for period in range(
                2, min(_MAX_CYCLE_PERIOD, len(history) - 1) + 1
            )
        }
        periodic = [
            period for period, gap in gaps.items() if gap <= _CYCLE_GAP
        ]
        if periodic:
            period = periodic[0]
        elif len(history) >= _SETTLE_ROUNDS:
            # No exact orbit: freeze over the closest repeat.
            period = min(gaps, key=gaps.__getitem__)
        else:
            return None
        snapshots = [weights for _, weights in history[-period:]]
        return [
            [
                math.fsum(snapshot[row][seg] for snapshot in snapshots)
                / period
                for seg in range(len(row_weights))
            ]
            for row, row_weights in enumerate(weights)
        ]


@dataclass
class _SingleSegmentContext:
    """Rate-independent arrays for a one-segment composition.

    Built once per ``simulate()`` call; every fixed-point round scales
    ``per_line_coeff``/``stream_coeff`` by the current throughput
    vector instead of rebuilding actor objects.
    """

    capacity_lines: float
    working: "np.ndarray"
    per_line_coeff: "np.ndarray"
    owner: "np.ndarray"
    keys: list
    idle_hits: dict
    stream_coeff: "np.ndarray"


@dataclass
class _MultiSegmentContext:
    """Rate-independent tables for a multi-segment composition.

    One row per ``(query, region)`` key, in the order the placement
    first meets them: segments in way order, each segment's members in
    query order, each member's regions in profile order.
    Built once per ``simulate()`` call; every fixed-point round scales
    the rows by the throughput vector and solves each segment straight
    from these lists, without per-round actor objects or dicts.
    """

    keys: list
    #: Per row: owning query index, working lines, LLC accesses per
    #: tuple, and the segments the region may occupy (ascending).
    owner: list
    working: list
    coeff: list
    row_segments: list
    #: Per row: the capacity of its allowed segments, summed in
    #: segment order (the overflow spread's denominator).
    row_capacity: list
    #: Per row, per segment: the capacity-proportional starting weight
    #: (0.0 where the region may not go).
    base_weights: list
    #: Per segment: member rows, ``(query index, stream weight)`` pairs
    #: and capacity in lines.
    seg_rows: list
    seg_streams: list
    capacity: list
    #: Per query: streamed lines per tuple.
    stream_coeff: list
    #: Placement weights the last solve blended with (per row, per
    #: segment), and the weights a detected limit cycle froze the
    #: placement at (None while the greedy placement runs).
    last_weights: list = field(default_factory=list)
    frozen: list | None = None


class SimulationResults(dict):
    """What :meth:`WorkloadSimulator.simulate` returns.

    A plain ``{query name: QueryResult}`` dict that also records how
    the fixed point ended: whether it ``converged`` (the undamped
    residual ``max |target / throughput - 1|`` fell to the tolerance),
    the ``rounds`` it took, the last ``residual``, and whether a
    placement ``limit_cycle`` had to be frozen on the way.
    """

    def __init__(
        self,
        results=(),
        *,
        converged: bool = True,
        rounds: int = 0,
        residual: float = 0.0,
        limit_cycle: bool = False,
    ) -> None:
        super().__init__(results)
        self.converged = converged
        self.rounds = rounds
        self.residual = residual
        self.limit_cycle = limit_cycle


def system_counters(results: dict[str, QueryResult]) -> CounterRates:
    """Socket-wide counter rates (what PCM reports for the machine)."""
    total = CounterRates()
    for result in results.values():
        total = total.combined(result.counters)
    return total


class WorkloadSimulator:
    """Solves the throughput/occupancy/bandwidth fixed point."""

    def __init__(
        self,
        spec: SystemSpec,
        calibration: Calibration = DEFAULT_CALIBRATION,
        latency: LatencyModel | None = None,
        max_iterations: int = 300,
        damping: float = 0.4,
        tolerance: float = 1e-6,
    ) -> None:
        if not 0.0 < damping <= 1.0:
            raise ModelError(f"damping must be in (0, 1]: {damping}")
        self.spec = spec
        self.calibration = calibration
        self.latency = latency if latency is not None else LatencyModel(spec)
        self.max_iterations = max_iterations
        self.damping = damping
        self.tolerance = tolerance

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------

    def simulate(self, queries: list[QuerySpec]) -> SimulationResults:
        """Solve the workload's steady state.

        When the queries' summed core counts oversubscribe the socket
        (the paper runs each query with the full physical-core
        concurrency limit, so two queries time-share cores as SMT
        siblings), a proportional compute penalty is applied; memory
        behaviour is left to the contention models.
        """
        if not queries:
            raise ModelError("simulate requires at least one query")
        names = [q.name for q in queries]
        if len(names) != len(set(names)):
            raise ModelError(f"duplicate query names: {names}")
        with runtime.tracer.span(
            "simulate", queries=",".join(names)
        ):
            return self._simulate(queries)

    def simulate_many(
        self, compositions: list[list[QuerySpec]]
    ) -> list[SimulationResults]:
        """Solve several compositions in one batched call.

        Each composition gets exactly the fixed point
        :meth:`simulate` would have produced (the results are
        bit-identical), but the per-query preparation constants —
        latency-model fractions, per-tuple coefficients — are shared
        across compositions through one prepare memo, so a population
        of overlapping hypothetical node states (the planner's batch
        scoring path) pays for each distinct ``(query, cores, mask,
        smt)`` shape once instead of once per composition.
        """
        if not compositions:
            return []
        prepare_cache: dict = {}
        results = []
        with runtime.tracer.span(
            "simulate_batch", compositions=len(compositions)
        ):
            runtime.metrics.counter(
                "simulator.batch.compositions"
            ).inc(len(compositions))
            for queries in compositions:
                if not queries:
                    raise ModelError(
                        "simulate requires at least one query"
                    )
                names = [q.name for q in queries]
                if len(names) != len(set(names)):
                    raise ModelError(
                        f"duplicate query names: {names}"
                    )
                results.append(
                    self._simulate(
                        queries, prepare_cache=prepare_cache
                    )
                )
        return results

    def _simulate(
        self,
        queries: list[QuerySpec],
        prepare_cache: dict | None = None,
    ) -> SimulationResults:
        # SMT contention: when the workload demands more cores than the
        # socket has, the surplus threads time-share.  A query whose
        # threads all collide (e.g. a 2-core OLTP pool on a machine
        # saturated by a 22-core scan) pays the full hyper-thread
        # penalty; a query with only a few contended cores pays
        # proportionally.
        total_cores = sum(q.cores for q in queries)
        surplus = max(0, total_cores - self.spec.cores)
        smt_factors = {}
        for q in queries:
            contended_share = min(1.0, surplus / q.cores)
            smt_factors[q.name] = 1.0 + (
                self.calibration.smt_compute_factor - 1.0
            ) * contended_share

        masks = {q.name: q.mask for q in queries}
        segments = decompose_masks(masks, self.spec.llc.ways)
        line_bytes = self.spec.llc.line_bytes
        way_lines = self.spec.llc.way_bytes / line_bytes
        allowed_lines = {
            q.name: bin(q.mask).count("1") * way_lines for q in queries
        }

        if prepare_cache is None:
            prepared = {
                q.name: self._prepare(q, smt_factors[q.name])
                for q in queries
            }
        else:
            # Batched path: identical (query, cores, mask, smt) shapes
            # across compositions share one prepared dict.  The dicts
            # are read-only after _prepare, so sharing is safe.
            prepared = {}
            for q in queries:
                shape = (
                    q.name, id(q.profile), q.cores, q.mask,
                    smt_factors[q.name],
                )
                entry = prepare_cache.get(shape)
                if entry is None:
                    entry = prepare_cache[shape] = self._prepare(
                        q, smt_factors[q.name]
                    )
                prepared[q.name] = entry
        throughput = {
            q.name: q.cores / prepared[q.name]["base_tuple_seconds"]
            for q in queries
        }
        hit_ratios: dict[str, dict[str, float]] = {
            q.name: {r.name: 1.0 for r in q.profile.regions} for q in queries
        }
        slowdowns = {q.name: 1.0 for q in queries}
        multi_ctx = None
        if len(segments) == 1:
            # Uniform-mask compositions (the "none" policy, and any
            # scheme where every class shares one mask) collapse to a
            # single segment with unit weights and no re-placement.
            single_ctx = self._single_segment_context(
                queries, prepared, segments[0], way_lines
            )
            solve_occupancy = functools.partial(
                self._solve_occupancy_single, queries, ctx=single_ctx
            )
        else:
            multi_ctx = self._multi_segment_context(
                queries, prepared, segments, allowed_lines, way_lines
            )
            solve_occupancy = functools.partial(
                self._solve_occupancy_multi, queries, ctx=multi_ctx
            )

        # The outer fixed point runs on log-throughput: x -> log(target)
        # where target = cores / per-tuple time at throughput exp(x).
        # Anderson mixing extrapolates from the last few residuals; a
        # greedy placement flip-flopping between rounds shows up as a
        # stalled residual and is frozen at its mean over one cycle.
        log_rates = [math.log(throughput[q.name]) for q in queries]
        mixer = _AndersonMixer(_ANDERSON_MEMORY, self.damping)
        cycle = _CycleDetector() if multi_ctx is not None else None
        rounds = 0
        converged = False
        limit_cycle = False
        residual = math.inf
        for _ in range(self.max_iterations):
            rounds += 1
            hit_ratios = solve_occupancy(throughput)
            usages = [
                self._bandwidth_usage(q, prepared[q.name], throughput[q.name],
                                      hit_ratios[q.name])
                for q in queries
            ]
            solution = solve_bandwidth(
                usages, self.spec.dram.bandwidth_bytes_per_s
            )
            slowdowns = solution.slowdowns

            residual = 0.0
            steps = []
            for q, log_rate in zip(queries, log_rates):
                per_tuple, _ = self._per_tuple_time(
                    q, prepared[q.name], hit_ratios[q.name],
                    slowdowns[q.name],
                )
                target = q.cores / per_tuple
                residual = max(
                    residual, abs(target / throughput[q.name] - 1.0)
                )
                steps.append(math.log(target) - log_rate)
            if residual <= self.tolerance:
                converged = True
                break
            if cycle is not None:
                frozen = cycle.observe(
                    residual, log_rates, multi_ctx.last_weights
                )
                if frozen is not None:
                    # The frozen placement makes the map continuous;
                    # mixing restarts on it.
                    multi_ctx.frozen = frozen
                    limit_cycle = True
                    cycle = None
                    mixer.reset()
            if cycle is not None and cycle.settling:
                # Undamped steps onto the cycle's periodic orbit.
                log_rates = [a + b for a, b in zip(log_rates, steps)]
            else:
                log_rates = mixer.step(log_rates, steps, residual)
            throughput = {
                q.name: math.exp(log_rate)
                for q, log_rate in zip(queries, log_rates)
            }

        metrics = runtime.metrics
        metrics.counter("simulator.solves").inc()
        metrics.counter("simulator.fixed_point_rounds").inc(rounds)
        if limit_cycle:
            metrics.counter("simulator.limit_cycles").inc()
        if not converged:
            metrics.counter("simulator.convergence_failures").inc()

        return SimulationResults(
            self._build_results(
                queries, prepared, throughput, hit_ratios, slowdowns
            ),
            converged=converged,
            rounds=rounds,
            residual=residual,
            limit_cycle=limit_cycle,
        )

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------

    def _prepare(self, query: QuerySpec, smt_factor: float) -> dict:
        """Precompute per-query constants that do not move in the loop."""
        profile = query.profile
        line_bytes = self.spec.llc.line_bytes
        l2_fractions = {
            region.name: self.latency.l2_hit_fraction(
                region.total_bytes, region.shared, query.cores
            )
            for region in profile.regions
        }
        llc_accesses_per_tuple = {
            region.name: region.accesses_per_tuple
            * (1.0 - l2_fractions[region.name])
            for region in profile.regions
        }
        stream_lines_per_tuple = profile.stream_bytes_per_tuple / line_bytes
        compute_seconds = (
            profile.compute_cycles_per_tuple * smt_factor * self.spec.cycle_s
        )
        ways = bin(query.mask).count("1")
        base_stream_seconds = (
            profile.stream_bytes_per_tuple
            / self.calibration.per_core_stream_bandwidth
        )
        # Optimistic first guess: everything hits, no contention.
        base_random = sum(
            llc_accesses_per_tuple[r.name]
            * self.latency.random_access_cycles(
                l2_fractions[r.name], 1.0, profile.mlp
            )
            * self.spec.cycle_s
            + r.accesses_per_tuple
            * l2_fractions[r.name]
            * self.latency.l2_cycles
            / profile.mlp
            * self.spec.cycle_s
            for r in profile.regions
        )
        base = max(
            compute_seconds + base_random + base_stream_seconds, 1e-15
        )
        return {
            "l2_fractions": l2_fractions,
            "llc_accesses_per_tuple": llc_accesses_per_tuple,
            "stream_lines_per_tuple": stream_lines_per_tuple,
            "compute_seconds": compute_seconds,
            "ways": ways,
            "base_tuple_seconds": base,
            # Hot-loop constants: the properties/lookups below are
            # re-read on every fixed-point round.
            "stream_bytes_per_tuple": profile.stream_bytes_per_tuple,
            "base_stream_seconds": base_stream_seconds,
            # (name, llc accesses/tuple, raw accesses/tuple,
            #  l2 fraction, software_managed) per region.
            "region_rows": tuple(
                (
                    region.name,
                    llc_accesses_per_tuple[region.name],
                    region.accesses_per_tuple,
                    l2_fractions[region.name],
                    region.software_managed,
                )
                for region in profile.regions
            ),
        }

    def _multi_segment_context(
        self,
        queries: list[QuerySpec],
        prepared: dict[str, dict],
        segments,
        allowed_lines: dict[str, float],
        way_lines: float,
    ) -> _MultiSegmentContext:
        """Precompute the rate-independent tables of a multi-segment
        composition — built once per ``simulate()`` call."""
        line_bytes = self.spec.llc.line_bytes
        index = {q.name: q_index for q_index, q in enumerate(queries)}
        ctx = _MultiSegmentContext(
            keys=[], owner=[], working=[], coeff=[], row_segments=[],
            row_capacity=[], base_weights=[], seg_rows=[],
            seg_streams=[], capacity=[],
            stream_coeff=[
                prepared[q.name]["stream_lines_per_tuple"]
                for q in queries
            ],
        )
        rows: dict[tuple[str, str], int] = {}
        for seg_index, segment in enumerate(segments):
            seg_lines = segment.ways * way_lines
            seg_rows: list[int] = []
            seg_streams: list[tuple[int, float]] = []
            # Members in query order, not frozenset order (which
            # follows the per-process string hash seed).
            for member in sorted(segment.members, key=index.__getitem__):
                q_index = index[member]
                base = seg_lines / allowed_lines[member]
                coeffs = prepared[member]["llc_accesses_per_tuple"]
                for region in queries[q_index].profile.regions:
                    key = (member, region.name)
                    row = rows.get(key)
                    if row is None:
                        row = rows[key] = len(ctx.keys)
                        ctx.keys.append(key)
                        ctx.owner.append(q_index)
                        ctx.working.append(
                            max(1.0, region.total_bytes / line_bytes)
                        )
                        ctx.coeff.append(coeffs[region.name])
                        ctx.row_segments.append([])
                        ctx.base_weights.append([0.0] * len(segments))
                    ctx.row_segments[row].append(seg_index)
                    ctx.base_weights[row][seg_index] = base
                    seg_rows.append(row)
                seg_streams.append((q_index, base))
            ctx.seg_rows.append(seg_rows)
            ctx.seg_streams.append(seg_streams)
            ctx.capacity.append(seg_lines)
        ctx.row_capacity = [
            sum(segments[idx].ways * way_lines for idx in segs)
            for segs in ctx.row_segments
        ]
        return ctx

    def _solve_occupancy_multi(
        self,
        queries: list[QuerySpec],
        throughput: dict[str, float],
        ctx: _MultiSegmentContext,
    ) -> dict[str, dict[str, float]]:
        """Solve every way-mask segment; blend per-region hit ratios.

        A region spanning several segments distributes its working set
        and accesses across them.  Real LRU residency is not uniform:
        lines survive where eviction pressure is low, so a region that
        fits into a clean (e.g. exclusive) segment effectively migrates
        there, while a region larger than the clean capacity spills the
        remainder into contested segments.  We capture this with a
        greedy placement iterated a few times: order the region's
        allowed segments by their characteristic time (cleanest first)
        and fill the working set up to each segment's capacity; any
        overflow is spread capacity-proportionally (it misses anyway).
        Streams have no reuse and keep capacity-proportional weights.
        Once a limit cycle froze the placement (``ctx.frozen``), one
        pass blends with the frozen weights.
        """
        rates = [throughput[q.name] for q in queries]
        working = ctx.working
        capacity = ctx.capacity
        row_segments = ctx.row_segments
        access = [
            rates[owner] * coeff
            for owner, coeff in zip(ctx.owner, ctx.coeff)
        ]
        # Coordinated greedy re-placement order: regions claim the
        # cleanest segments first, hottest (highest per-line reference
        # rate) regions first — mirroring which lines survive under
        # LRU.  Only regions spanning >= 2 segments move.
        hot_rows = [
            row
            for row in sorted(
                range(len(access)),
                key=lambda row: -(access[row] / working[row]),
            )
            if len(row_segments[row]) >= 2
        ]
        if ctx.frozen is not None:
            weights = ctx.frozen
            passes = 1
        else:
            weights = [
                list(row_weights) for row_weights in ctx.base_weights
            ]
            passes = _PLACEMENT_PASSES
        expm1 = math.expm1
        blended: dict[int, float] = {}
        for placement in range(passes):
            blended = {}
            seg_times: list[float] = []
            for seg_index, rows in enumerate(ctx.seg_rows):
                placed_rows = []
                lines: list[float] = []
                per_line: list[float] = []
                for row in rows:
                    weight = weights[row][seg_index]
                    if weight <= 0:
                        continue
                    rate = access[row] * weight
                    span = working[row] * weight
                    placed_rows.append((row, weight, rate, span))
                    if rate > 0:
                        lines.append(span)
                        per_line.append(rate / span)
                streaming = 0.0
                for q_index, stream_weight in ctx.seg_streams[seg_index]:
                    insertion = rates[q_index] * ctx.stream_coeff[q_index]
                    if insertion > 0:
                        streaming += insertion * stream_weight
                with runtime.tracer.span("solve_segment"):
                    t_char = solve_characteristic_time_arrays(
                        np.array(lines, dtype=np.float64),
                        np.array(per_line, dtype=np.float64),
                        streaming,
                        capacity[seg_index],
                    )
                seg_times.append(t_char)
                infinite = math.isinf(t_char)
                for row, weight, rate, span in placed_rows:
                    if rate == 0 or infinite:
                        hit = 1.0
                    else:
                        # Che: resident lines over working lines.
                        hit = (
                            span * -expm1(-(rate / span) * t_char)
                        ) / span
                    blended[row] = blended.get(row, 0.0) + weight * hit
            if placement == passes - 1:
                # The last pass's blend is the answer; a re-placement
                # after it would never be read.
                break

            # A shared residual per segment stops several regions
            # from over-committing the same clean ways.
            residual = list(capacity)
            for row in hot_rows:
                segs = row_segments[row]
                working_lines = working[row]
                remaining = working_lines
                placed = dict.fromkeys(segs, 0.0)
                for seg_index in sorted(
                    segs, key=lambda idx: -seg_times[idx]
                ):
                    take = min(remaining, residual[seg_index])
                    placed[seg_index] = take
                    residual[seg_index] -= take
                    remaining -= take
                if remaining > 0:
                    total_capacity = ctx.row_capacity[row]
                    for seg_index in segs:
                        placed[seg_index] += (
                            remaining * capacity[seg_index]
                            / total_capacity
                        )
                row_weights = weights[row]
                for seg_index in segs:
                    row_weights[seg_index] = (
                        placed[seg_index] / working_lines
                    )

        ctx.last_weights = weights
        hit_ratios: dict[str, dict[str, float]] = {
            q.name: {} for q in queries
        }
        for row, value in blended.items():
            name, region_name = ctx.keys[row]
            hit_ratios[name][region_name] = value
        for q in queries:
            hits = hit_ratios[q.name]
            for region in q.profile.regions:
                hits[region.name] = min(
                    1.0, max(0.0, hits.get(region.name, 1.0))
                )
        return hit_ratios

    def _single_segment_context(
        self,
        queries: list[QuerySpec],
        prepared: dict[str, dict],
        segment,
        way_lines: float,
    ) -> _SingleSegmentContext:
        """Precompute the rate-independent arrays for a one-segment
        composition — built once per ``simulate()`` call, scaled by the
        current throughput vector on every fixed-point round."""
        line_bytes = self.spec.llc.line_bytes
        working: list[float] = []
        per_line_coeff: list[float] = []
        owner: list[int] = []
        keys: list[tuple[str, str]] = []
        idle_hits: dict[str, dict[str, float]] = {}
        stream_coeff: list[float] = []
        for q_index, q in enumerate(queries):
            prep = prepared[q.name]
            hits: dict[str, float] = {}
            for region in q.profile.regions:
                coeff = prep["llc_accesses_per_tuple"][region.name]
                if coeff > 0:
                    lines = max(1.0, region.total_bytes / line_bytes)
                    working.append(lines)
                    per_line_coeff.append(coeff / lines)
                    owner.append(q_index)
                    keys.append((q.name, region.name))
                else:
                    # Idle regions never miss (same as the actor path).
                    hits[region.name] = 1.0
            idle_hits[q.name] = hits
            stream_coeff.append(prep["stream_lines_per_tuple"])
        return _SingleSegmentContext(
            capacity_lines=segment.ways * way_lines,
            working=np.asarray(working, dtype=np.float64),
            per_line_coeff=np.asarray(
                per_line_coeff, dtype=np.float64
            ),
            owner=np.asarray(owner, dtype=np.intp),
            keys=keys,
            idle_hits=idle_hits,
            stream_coeff=np.asarray(stream_coeff, dtype=np.float64),
        )

    def _solve_occupancy_single(
        self,
        queries: list[QuerySpec],
        throughput: dict[str, float],
        ctx: _SingleSegmentContext,
    ) -> dict[str, dict[str, float]]:
        """Struct-of-arrays solve for a one-segment composition.

        Equivalent to the general path with every placement weight
        equal to one: each query's whole working set and traffic lands
        in the single shared segment, so blended hit ratios come
        straight from one characteristic-time solve over flat arrays
        — no per-round actor objects, no placement rounds.
        """
        rates = np.fromiter(
            (throughput[q.name] for q in queries),
            dtype=np.float64,
            count=len(queries),
        )
        per_line = rates[ctx.owner] * ctx.per_line_coeff
        streaming = float(rates @ ctx.stream_coeff)
        with runtime.tracer.span("solve_segment"):
            t_char = solve_characteristic_time_arrays(
                ctx.working, per_line, streaming, ctx.capacity_lines
            )
        blended = {
            name: dict(hits) for name, hits in ctx.idle_hits.items()
        }
        if math.isinf(t_char):
            solved = np.ones(len(ctx.keys), dtype=np.float64)
        else:
            with np.errstate(over="ignore"):
                solved = -np.expm1(-per_line * t_char)
        for (name, region_name), hit in zip(ctx.keys, solved.tolist()):
            blended[name][region_name] = min(1.0, max(0.0, hit))
        return blended

    def _effective_hit(self, region, hit: float) -> float:
        """Apply the software-blocking discount to a region's hit ratio.

        Operators that partition their probes when a structure outgrows
        the cache amortise each fetched line over several accesses; the
        model charges only a fraction of the nominal capacity misses.
        """
        if not region.software_managed:
            return hit
        discount = self.calibration.software_managed_miss_discount
        return 1.0 - (1.0 - hit) * discount

    def _bandwidth_usage(
        self,
        query: QuerySpec,
        prep: dict,
        throughput: float,
        hits: dict[str, float],
    ) -> BandwidthUsage:
        line_bytes = self.spec.llc.line_bytes
        stream_bytes = throughput * prep["stream_bytes_per_tuple"]
        discount = self.calibration.software_managed_miss_discount
        miss_bytes = 0.0
        for name, coeff, _, _, managed in prep["region_rows"]:
            hit = hits[name]
            if managed:
                hit = 1.0 - (1.0 - hit) * discount
            miss_bytes += (
                throughput * coeff * (1.0 - hit) * line_bytes
            )
        return BandwidthUsage(query.name, stream_bytes, miss_bytes)

    def _per_tuple_time(
        self,
        query: QuerySpec,
        prep: dict,
        hits: dict[str, float],
        slowdown: float,
    ) -> tuple[float, dict[str, float]]:
        profile = query.profile
        cycle_s = self.spec.cycle_s
        slow = max(1.0, slowdown)
        # Inlined LatencyModel.random_access_cycles (same arithmetic,
        # constants hoisted): this loop runs once per query per
        # fixed-point round and dominated the non-solver round cost.
        mlp = profile.mlp
        l2_cycles = self.latency.l2_cycles
        llc_cycles = self.latency.llc_cycles
        dram_cycles = self.latency.dram_cycles * slow
        discount = self.calibration.software_managed_miss_discount
        random_seconds = 0.0
        for name, _, accesses, l2_fraction, managed in prep[
            "region_rows"
        ]:
            hit = hits[name]
            if managed:
                hit = 1.0 - (1.0 - hit) * discount
            raw = l2_fraction * l2_cycles + (1.0 - l2_fraction) * (
                hit * llc_cycles + (1.0 - hit) * dram_cycles
            )
            random_seconds += accesses * (raw / mlp) * cycle_s

        stream_seconds = prep["base_stream_seconds"] * slow
        # Single-way masks defeat the prefetcher (paper Sec. V-B): add a
        # demand-latency charge per streamed line.
        stream_seconds += (
            prep["stream_lines_per_tuple"]
            * self.latency.streaming_cycles_per_line(prep["ways"], slow)
            * cycle_s
        )

        breakdown = {
            "compute": prep["compute_seconds"],
            "random": random_seconds,
            "stream": stream_seconds,
        }
        total = max(sum(breakdown.values()), 1e-15)
        return total, breakdown

    def _build_results(
        self,
        queries: list[QuerySpec],
        prepared: dict[str, dict],
        throughput: dict[str, float],
        hit_ratios: dict[str, dict[str, float]],
        slowdowns: dict[str, float],
    ) -> dict[str, QueryResult]:
        line_bytes = self.spec.llc.line_bytes
        results: dict[str, QueryResult] = {}
        for query in queries:
            prep = prepared[query.name]
            rate = throughput[query.name]
            per_tuple, breakdown = self._per_tuple_time(
                query, prep, hit_ratios[query.name], slowdowns[query.name]
            )
            usage = self._bandwidth_usage(
                query, prep, rate, hit_ratios[query.name]
            )
            stream_refs = rate * prep["stream_lines_per_tuple"]
            region_refs = sum(
                rate * prep["llc_accesses_per_tuple"][r.name]
                for r in query.profile.regions
            )
            region_hits = sum(
                rate
                * prep["llc_accesses_per_tuple"][r.name]
                * self._effective_hit(r, hit_ratios[query.name][r.name])
                for r in query.profile.regions
            )
            counters = CounterRates(
                instructions_per_s=rate * query.profile.instructions_per_tuple,
                llc_references_per_s=region_refs + stream_refs,
                llc_hits_per_s=region_hits
                + stream_refs * self.calibration.stream_llc_hit_fraction,
            )
            results[query.name] = QueryResult(
                name=query.name,
                throughput_tuples_per_s=rate,
                per_tuple_seconds=per_tuple,
                queries_per_s=rate / query.profile.tuples,
                region_hit_ratios=dict(hit_ratios[query.name]),
                region_l2_fractions=dict(prep["l2_fractions"]),
                time_breakdown=breakdown,
                # Delivered traffic: demand scaled back by the queueing
                # slowdown (grants cap what actually crosses the bus).
                dram_bytes_per_s=(
                    usage.total / max(1.0, slowdowns[query.name])
                ),
                bandwidth_slowdown=slowdowns[query.name],
                counters=counters,
            )
        return results
