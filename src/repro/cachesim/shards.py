"""Streaming SHARDS miss-ratio-curve estimation (Waldspurger et al., 2015).

The exact engines (:mod:`repro.cachesim.mattson`,
:mod:`repro.cachesim.misscurve`) need the whole trace; a serving leaf
that wants to *learn its miss curve live* cannot afford either the
memory or the post-hoc pass.  SHARDS ("Spatially Hashed Approximate
Reuse Distance Sampling") makes the classic stack-distance analysis
streaming and O(1)-memory:

* **Spatial hashing** — a line is sampled iff ``hash(line) < T`` for a
  fixed uniform hash, so sampling is *per line*, not per access: every
  access to a sampled line is observed, which is what keeps reuse pairs
  intact (temporal sampling would break them).
* **Conditional inclusion** — stack distances are measured inside the
  sampled sub-stream only, then scaled by ``1 / R`` (``R = T`` is the
  sampling rate): a sampled distance ``d`` estimates a true distance
  ``d / R`` because a fraction ``R`` of the distinct lines between two
  touches of a sampled line are themselves sampled.
* **Fixed-size reservoir with rate adaptation** (SHARDS_adj) — when the
  set of tracked lines outgrows ``max_reservoir``, the largest-hash
  lines are evicted and the threshold drops to their hash, lowering the
  effective rate; memory is thereby bounded no matter how large the
  working set grows, at the cost of coarser estimates.

Sampled distances are stack distances of the hash-filtered sub-stream,
so one :func:`repro.cachesim.fastsim.fast_stack_distances` call per fed
batch computes them all: a feed costs O(tracked + batch).

Each scaled distance lands in a fixed log-spaced histogram with weight
``1 / R``; the resulting :class:`ShardsCurve` answers the same
``hit_rate(capacity_lines)`` questions as
:class:`~repro.cachesim.misscurve.MissRatioCurve` and is validated
against the exact Mattson analysis by the differential test suite (at
``rate=1.0`` with edge-aligned capacities the estimate is *exact*).

The estimator feeds the online control loop: one instance per serving
leaf (:class:`repro.search.simmem.LeafCacheMonitor`) publishes live
curves and health to ``repro.cachesim.shards.*`` metrics, and
:mod:`repro.search.cachectl` re-partitions shared-cache ways from them.
"""

from __future__ import annotations

import heapq

import numpy as np

from repro.cachesim import fastsim
from repro.errors import ConfigurationError, TraceError

#: Wrap mask for 64-bit hash arithmetic on Python ints.
_MASK64 = (1 << 64) - 1

#: Scaled-distance histogram edges: exact single-integer buckets up to
#: this point, multiplicative buckets beyond it.
_EXACT_EDGE_LIMIT = 128

#: Multiplicative growth of the log-spaced distance buckets (~9% wide;
#: linear interpolation inside a bucket keeps curve error well below
#: the bucket width).
_EDGE_FACTOR = 2.0 ** (1.0 / 8.0)

#: Largest representable scaled distance (lines); anything beyond the
#: last edge can only miss at every capacity this library sweeps.
_MAX_EDGE = 2.0**42


def _default_distance_edges() -> np.ndarray:
    """The shared scaled-distance bucket ladder (module-level constant)."""
    edges = [float(d) for d in range(1, _EXACT_EDGE_LIMIT + 1)]
    while edges[-1] < _MAX_EDGE:
        edges.append(edges[-1] * _EDGE_FACTOR)
    return np.asarray(edges, np.float64)


#: Bucket upper edges shared by every estimator (copy before mutating).
DISTANCE_EDGES = _default_distance_edges()


def _mix64(value: int) -> int:
    """SplitMix64 finalizer: a high-quality deterministic 64-bit mix."""
    value = (value + 0x9E3779B97F4A7C15) & _MASK64
    value = ((value ^ (value >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    value = ((value ^ (value >> 27)) * 0x94D049BB133111EB) & _MASK64
    return value ^ (value >> 31)


def hash_unit(lines: np.ndarray, seed: int = 0) -> np.ndarray:
    """Deterministic per-line hash values in ``[0, 1)``, vectorized.

    The SplitMix64 finalizer applied to ``line + salt(seed)``; a pure
    function of its arguments (no ambient RNG), so two estimators with
    the same seed sample *nested* line sets across any pair of rates —
    the monotonicity property the Hypothesis suite pins.
    """
    salt = np.uint64(_mix64(seed & _MASK64))
    with np.errstate(over="ignore"):
        v = np.asarray(lines).astype(np.uint64) + salt
        v = (v ^ (v >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
        v = (v ^ (v >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
        v = v ^ (v >> np.uint64(31))
    return (v >> np.uint64(11)).astype(np.float64) / float(1 << 53)


def _evicted_between(
    prev: np.ndarray, reuses: np.ndarray, last: np.ndarray, evicted_at: np.ndarray
) -> np.ndarray:
    """Per reuse, the evicted lines between its previous access and it.

    A line evicted by rate adaptation stays in the kernel's stream, so it
    inflates a reuse's distance iff it was evicted before the reuse and
    last accessed after the reuse's previous access.  All are stream
    positions (``last[k]`` and ``evicted_at[k]`` describe one line).  In
    the time-ordered merge of evictions (value ``-last``) and reuses
    (value ``-prev - 1``) that is the count of preceding values ``<=``
    the reuse's, less the reuses' count among themselves.
    """
    values = -prev[reuses] - 1
    order = np.argsort(np.concatenate((evicted_at, reuses)), kind="stable")
    merged = np.concatenate((-last, values))[order]
    counts = np.empty(len(order), np.int64)
    counts[order] = fastsim._count_preceding_leq(merged)[: len(order)]
    return counts[len(last) :] - fastsim._count_preceding_leq(values)[: len(values)]


class ShardsEstimator:
    """Streaming, bounded-memory LRU miss-ratio-curve estimator.

    Parameters
    ----------
    rate:
        Initial spatial sampling rate ``R`` in ``(0, 1]``; ``0.01``
        observes ~1% of distinct lines and is the operating point the
        accuracy gate validates.
    max_reservoir:
        Maximum tracked (sampled, distinct) lines; ``None`` disables
        rate adaptation.  With a bound, evictions lower the effective
        rate so memory never exceeds the reservoir plus a constant.
    seed:
        Salts the spatial hash; estimators with equal seeds sample
        nested line sets across rates.

    Feed accesses in batches with :meth:`feed` (any 1-D int array of
    cache-line ids, in program order); read the running estimate with
    :meth:`curve` and health with :attr:`rate`, :attr:`reservoir_lines`,
    :attr:`reservoir_evictions`.  The only state carried between feeds
    is the tracked lines (least recently used first) with their hashes,
    so a feed costs O(tracked + batch) and one
    :func:`~repro.cachesim.fastsim.fast_stack_distances` call.
    """

    def __init__(
        self,
        rate: float = 0.01,
        max_reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        """Validate the operating point; see the class docstring."""
        if not 0.0 < rate <= 1.0:
            raise ConfigurationError(f"rate must be in (0, 1], got {rate}")
        if max_reservoir is not None and max_reservoir < 2:
            raise ConfigurationError(
                f"max_reservoir must be >= 2 or None, got {max_reservoir}"
            )
        self.initial_rate = float(rate)
        self.max_reservoir = max_reservoir
        self.seed = seed
        self._threshold = float(rate)
        self._edges = DISTANCE_EDGES
        #: Estimated reuses per scaled-distance bucket (weights of 1/R),
        #: then one last slot holding the scaled first-touch mass.
        self._mass = np.zeros(len(self._edges) + 2, np.float64)
        self._total_accesses = 0
        self._sampled_accesses = 0
        self._cold_touches = 0
        self._evictions = 0
        #: Tracked lines, least recently used first, and their hashes
        #: (every one below the threshold).
        self._lines = np.empty(0, np.int64)
        self._hashes = np.empty(0, np.float64)

    # -- health --------------------------------------------------------

    @property
    def rate(self) -> float:
        """Current effective sampling rate (drops under adaptation)."""
        return self._threshold

    @property
    def total_accesses(self) -> int:
        """Every access fed so far, sampled or not (the exact denominator)."""
        return self._total_accesses

    @property
    def sampled_accesses(self) -> int:
        """Accesses that fell on sampled lines."""
        return self._sampled_accesses

    @property
    def reservoir_lines(self) -> int:
        """Distinct lines currently tracked (bounded by ``max_reservoir``)."""
        return len(self._lines)

    @property
    def reservoir_evictions(self) -> int:
        """Lines evicted by rate adaptation since construction."""
        return self._evictions

    # -- feeding -------------------------------------------------------

    def feed(self, lines: np.ndarray) -> None:
        """Feed a batch of cache-line ids in program order.

        Unsampled accesses cost one vectorized hash compare.  The sampled
        sub-stream -- the tracked lines in recency order, then each batch
        access whose hash is below the threshold in force when it arrives
        -- goes through one stack-distance kernel call; reuse distances
        that span a rate-adaptation eviction are then corrected.
        """
        lines = np.asarray(lines)
        if lines.ndim != 1:
            raise TraceError(f"lines must be 1-D, got shape {lines.shape}")
        self._total_accesses += len(lines)
        if len(lines) == 0:
            return
        hashes = hash_unit(lines, seed=self.seed)
        # The threshold only ever falls, so prefiltering at the current one
        # is sound.
        keep = hashes < self._threshold
        if not keep.any():
            return
        lines, hashes = lines[keep].astype(np.int64, copy=False), hashes[keep]
        tracked = len(self._lines)
        stream = np.concatenate((self._lines, lines))
        prev = fastsim._previous_occurrence(stream)
        rate = np.full(len(lines), self._threshold)
        evicted = evicted_at = np.empty(0, np.int64)
        first = np.flatnonzero(prev[tracked:] < 0)
        if self.max_reservoir is not None and tracked + len(first) > self.max_reservoir:
            changes, thresholds, evicted, evicted_at = self._adapt(
                first, lines[first], hashes[first]
            )
            rate = thresholds[np.searchsorted(changes, np.arange(len(lines)))]
            sampled = hashes < rate
            if not sampled.all():
                # Evictions happen at sampled first touches; re-index them.
                evicted_at = np.cumsum(sampled)[evicted_at] - 1
                lines, hashes, rate = lines[sampled], hashes[sampled], rate[sampled]
                stream = np.concatenate((self._lines, lines))
                prev = fastsim._previous_occurrence(stream)
            self._threshold = float(thresholds[-1])
        distances = fastsim.fast_stack_distances(stream)[tracked:]
        reuse = prev[tracked:] >= 0
        # Last accesses; the surviving lines, in this order, stay tracked.
        tail = np.ones(len(stream), bool)
        tail[prev[prev >= 0]] = False
        if len(evicted):
            last = np.flatnonzero(tail)
            last = last[np.isin(stream[last], evicted)]
            tail[last] = False
            if reuse.any():
                order = np.argsort(evicted)
                at = evicted_at[order][np.searchsorted(evicted[order], stream[last])]
                distances[reuse] -= _evicted_between(
                    prev, tracked + np.flatnonzero(reuse), last, tracked + at
                )
        self._lines = stream[tail]
        self._hashes = np.concatenate((self._hashes, hashes))[tail]
        # The reused line itself always appears in the sampled distance;
        # only the *other* distinct lines are thinned by the rate.  Scaling
        # the raw distance by 1/R would therefore bias every estimate up
        # by ~1/R lines -- fatal near the resolution floor.
        slots = np.full(len(lines), len(self._edges) + 1)
        scaled = (distances[reuse] - 1) / rate[reuse] + 1.0
        slots[reuse] = np.searchsorted(self._edges, scaled, side="left")
        # In program order, so every float sum matches one-at-a-time adds.
        np.add.at(self._mass, slots, 1.0 / rate)
        self._sampled_accesses += len(lines)
        self._cold_touches += len(lines) - int(np.count_nonzero(reuse))
        self._evictions += len(evicted)

    def _adapt(
        self, first: np.ndarray, first_lines: np.ndarray, first_hashes: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Run SHARDS_adj admission over the batch's first touches.

        Only first touches grow the tracked set: admit those below the
        threshold, and on overflow drop the threshold to the largest
        tracked hash, evicting every line at or above it.  Returns the
        positions where the threshold fell, the thresholds (initial
        first), and the evicted lines with the position of their eviction.
        """
        heap = list(zip((-self._hashes).tolist(), self._lines.tolist()))
        heapq.heapify(heap)
        changes, thresholds, evicted, evicted_at = [], [self._threshold], [], []
        for position, line, line_hash in zip(
            first.tolist(), first_lines.tolist(), first_hashes.tolist()
        ):
            if line_hash >= thresholds[-1]:
                continue
            heapq.heappush(heap, (-line_hash, line))
            if len(heap) > self.max_reservoir:
                changes.append(position)
                thresholds.append(-heap[0][0])
                while heap and -heap[0][0] >= thresholds[-1]:
                    evicted.append(heapq.heappop(heap)[1])
                    evicted_at.append(position)
        return (
            np.asarray(changes, np.int64),
            np.asarray(thresholds),
            np.asarray(evicted, np.int64),
            np.asarray(evicted_at, np.int64),
        )

    # -- reading -------------------------------------------------------

    def curve(self) -> "ShardsCurve":
        """The current estimate as a capacity-queryable curve.

        Cheap (copies the ~400-bucket histogram); call once per control
        epoch.  Raises :class:`~repro.errors.TraceError` before any
        access has been fed — an estimate of nothing is undefined, and
        the online control loop must treat it as *unstable*, not as a
        flat curve.
        """
        if self._total_accesses == 0:
            raise TraceError("no accesses fed yet; the estimate is undefined")
        return ShardsCurve(
            edges=self._edges,
            weights=self._mass[:-1].copy(),
            cold_weight=float(self._mass[-1]),
            num_accesses=self._total_accesses,
            sampled_accesses=self._sampled_accesses,
            cold_touches=self._cold_touches,
            rate=self._threshold,
        )


class ShardsCurve:
    """A SHARDS estimate, queryable like a miss-ratio curve.

    Mirrors the capacity surface of
    :class:`~repro.cachesim.misscurve.MissRatioCurve` (``hit_rate``,
    ``hit_rates``, ``miss_count``, ``num_accesses``, ``cold_misses``) so
    controllers can consume either.  Within the bucket straddling a
    capacity the estimate interpolates linearly; capacities that land
    exactly on a bucket edge take whole buckets, which is what makes the
    ``rate=1.0`` estimate exact there.

    Queries apply the SHARDS_adj correction: the scaled sampled mass
    (``sum(weights) + cold_weight``) should equal the true access count,
    and when the line lottery makes it deviate — a single unsampled hot
    line can carry percent-level access mass — the difference is
    credited at the smallest distance, where hot-line reuses live.
    Without it, skewed streams see tens-of-points miss-ratio error; with
    it, residual error is ordinary sampling noise (it vanishes at
    ``rate=1.0`` where the mass matches exactly).
    """

    def __init__(
        self,
        edges: np.ndarray,
        weights: np.ndarray,
        cold_weight: float,
        num_accesses: int,
        sampled_accesses: int,
        cold_touches: int,
        rate: float,
    ) -> None:
        """Freeze one estimator snapshot (built by ``Shards*.curve()``)."""
        self._edges = edges
        self._cum = np.concatenate(([0.0], np.cumsum(weights[:-1])))
        self._weights = weights
        self.cold_weight = cold_weight
        self.num_accesses = num_accesses
        self.sampled_accesses = sampled_accesses
        self.cold_touches = cold_touches
        self.rate = rate
        #: SHARDS_adj first-bucket correction: expected minus actual
        #: scaled sampled mass, credited at distance 1 by every query.
        self.adjustment = float(
            num_accesses - (float(np.sum(weights)) + cold_weight)
        )

    @property
    def distinct_lines(self) -> float:
        """Estimated distinct lines (scaled count of sampled first touches)."""
        return self.cold_weight

    @property
    def cold_misses(self) -> float:
        """Estimated first-touch accesses; they miss at every capacity."""
        return self.cold_weight

    @property
    def sampled_reuses(self) -> int:
        """Sampled reuse pairs behind the estimate (a stability signal)."""
        return self.sampled_accesses - self.cold_touches

    def _hits(self, capacities: np.ndarray) -> np.ndarray:
        caps = np.asarray(capacities, np.float64)
        if (caps <= 0).any():
            raise TraceError("capacities must be positive")
        index = np.searchsorted(self._edges, caps, side="right")
        full = self._cum[index]
        partial = np.zeros_like(caps)
        in_range = index < len(self._edges)
        if in_range.any():
            i = index[in_range]
            lower = np.where(i > 0, self._edges[i - 1], 0.0)
            upper = self._edges[i]
            fraction = np.clip(
                (caps[in_range] - lower) / (upper - lower), 0.0, 1.0
            )
            partial[in_range] = fraction * self._weights[i]
        # Every positive capacity covers distance 1, where the SHARDS_adj
        # mass is credited; clip to the physical range [0, N].
        return np.clip(
            full + partial + self.adjustment, 0.0, float(self.num_accesses)
        )

    def hit_rates(self, capacities_lines: np.ndarray | list[int]) -> np.ndarray:
        """Estimated LRU hit rates at several capacities (in lines)."""
        caps = np.atleast_1d(np.asarray(capacities_lines))
        return self._hits(caps) / self.num_accesses

    def hit_rate(self, capacity_lines: int) -> float:
        """Estimated hit rate at one capacity (in lines)."""
        return float(self.hit_rates([capacity_lines])[0])

    def miss_ratios(self, capacities_lines: np.ndarray | list[int]) -> np.ndarray:
        """Estimated miss ratios (``1 - hit_rate``) at several capacities."""
        return 1.0 - self.hit_rates(capacities_lines)

    def miss_ratio(self, capacity_lines: int) -> float:
        """Estimated miss ratio at one capacity (in lines)."""
        return 1.0 - self.hit_rate(capacity_lines)

    def miss_count(self, capacity_lines: int) -> float:
        """Estimated misses at one capacity (cold + capacity misses)."""
        return self.num_accesses - float(self._hits(np.asarray([capacity_lines]))[0])


class ShardsEnsemble:
    """Hash-replicated SHARDS: ``replicas`` independent estimators, averaged.

    A single spatial sample is at the mercy of the line lottery — one
    percent-share line straddling the capacity ladder swings the whole
    curve by ``share * sqrt(1/R)``.  Replicating the estimator under
    independent hash salts and averaging the curves cuts that noise by
    ``sqrt(replicas)`` while each member remains an honest rate-``R``
    SHARDS (the standard miniature-simulation remedy).  Memory is
    ``replicas`` times one estimator — still a small fraction of the
    exact analysis.

    The same surface as :class:`ShardsEstimator` (``feed`` / ``curve`` /
    health), with health aggregated across members.
    """

    def __init__(
        self,
        rate: float = 0.01,
        replicas: int = 8,
        max_reservoir: int | None = None,
        seed: int = 0,
    ) -> None:
        """Build ``replicas`` members with consecutive hash seeds."""
        if replicas < 1:
            raise ConfigurationError(f"replicas must be >= 1, got {replicas}")
        self.replicas = replicas
        self._members = [
            ShardsEstimator(rate=rate, max_reservoir=max_reservoir, seed=seed + i)
            for i in range(replicas)
        ]

    def feed(self, lines: np.ndarray) -> None:
        """Feed a batch of cache-line ids to every member."""
        lines = np.asarray(lines)
        for member in self._members:
            member.feed(lines)

    def curve(self) -> ShardsCurve:
        """The replica-averaged estimate (same capacity surface).

        Averaging the member histograms is averaging the member curves
        (queries are linear in the weights up to clipping); the returned
        curve's ``sampled_accesses`` / ``cold_touches`` sum over members
        so :attr:`ShardsCurve.sampled_reuses` reflects the evidence
        behind the average.
        """
        curves = [member.curve() for member in self._members]
        first = curves[0]
        return ShardsCurve(
            edges=first._edges,
            weights=np.mean([c._weights for c in curves], axis=0),
            cold_weight=float(np.mean([c.cold_weight for c in curves])),
            num_accesses=first.num_accesses,
            sampled_accesses=sum(c.sampled_accesses for c in curves),
            cold_touches=sum(c.cold_touches for c in curves),
            rate=float(np.mean([c.rate for c in curves])),
        )

    @property
    def rate(self) -> float:
        """Mean effective sampling rate across members."""
        return float(np.mean([m.rate for m in self._members]))

    @property
    def total_accesses(self) -> int:
        """Accesses fed (every member sees the identical stream)."""
        return self._members[0].total_accesses

    @property
    def sampled_accesses(self) -> int:
        """Sampled accesses summed over members."""
        return sum(m.sampled_accesses for m in self._members)

    @property
    def reservoir_lines(self) -> int:
        """Tracked lines summed over members (the memory footprint)."""
        return sum(m.reservoir_lines for m in self._members)

    @property
    def reservoir_evictions(self) -> int:
        """Rate-adaptation evictions summed over members."""
        return sum(m.reservoir_evictions for m in self._members)


def shards_hit_rates(
    lines: np.ndarray,
    capacities_lines: np.ndarray | list[int],
    rate: float = 0.01,
    max_reservoir: int | None = None,
    seed: int = 0,
    replicas: int = 1,
) -> np.ndarray:
    """One-call SHARDS estimate over a whole trace.

    The offline convenience mirror of
    :func:`repro.cachesim.mattson.hit_rate_for_capacities` — same
    signature shape, estimated instead of exact — used by the accuracy
    gates in ``tests/cachesim/test_shards.py``.
    ``replicas > 1`` averages that many hash-replicated estimators
    (:class:`ShardsEnsemble`).
    """
    if len(lines) == 0:
        raise TraceError("hit rate of an empty stream is undefined")
    estimator: ShardsEstimator | ShardsEnsemble
    if replicas > 1:
        estimator = ShardsEnsemble(
            rate=rate, replicas=replicas, max_reservoir=max_reservoir, seed=seed
        )
    else:
        estimator = ShardsEstimator(rate=rate, max_reservoir=max_reservoir, seed=seed)
    estimator.feed(np.asarray(lines, np.int64))
    return estimator.curve().hit_rates(capacities_lines)


def curve_drift(
    previous: ShardsCurve, current: ShardsCurve, capacities_lines: np.ndarray
) -> float:
    """Largest absolute miss-ratio movement between two estimates.

    The controller's stability signal: a workload in steady state drifts
    by sampling noise only, while a phase change moves whole decades of
    the curve.  Compared at the controller's own capacity ladder so the
    signal reflects the decisions actually at stake.
    """
    if len(capacities_lines) == 0:
        raise ConfigurationError("need at least one capacity to compare at")
    previous_miss = previous.miss_ratios(capacities_lines)
    current_miss = current.miss_ratios(capacities_lines)
    return float(np.max(np.abs(previous_miss - current_miss)))


def align_to_edges(capacities_lines: np.ndarray | list[int]) -> np.ndarray:
    """Snap capacities to the estimator's bucket edges (next edge up).

    At ``rate=1.0`` the estimate is exact at edge-aligned capacities;
    validation harnesses use this to separate bucketing error from
    sampling error.
    """
    caps = np.asarray(capacities_lines, np.float64)
    if (caps <= 0).any():
        raise TraceError("capacities must be positive")
    index = np.minimum(
        np.searchsorted(DISTANCE_EDGES, caps, side="left"),
        len(DISTANCE_EDGES) - 1,
    )
    return DISTANCE_EDGES[index]
