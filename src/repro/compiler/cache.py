"""Pattern-keyed compilation cache.

The paper's whole economic argument is compile-once/solve-many: a QP
sparsity pattern is scheduled once and the resulting executable serves
every numeric instance that shares the pattern (Section III-D).  This
module supplies the missing amortization machinery: a *stable
fingerprint* of (sparsity pattern, architecture configuration) and a
two-level memo — an in-memory LRU for repeated constructions inside one
process, and an on-disk store of JSON executables (the
:mod:`~repro.compiler.serialize` format) that survives across processes
and benchmark reruns.

Key properties:

* **Pattern-exact keys** — the fingerprint hashes the CSC structure
  (``indptr``/``indices``/shape) of ``P``'s upper triangle and ``A``,
  never the values, so two patterns with equal shapes but different
  structure can never collide, while every numeric instance of one
  pattern maps to the same key.
* **Config-complete keys** — the network width ``C``, algorithm
  variant, fill-reducing ordering, triangular-solve lowering, every
  :class:`~repro.compiler.scheduler.ScheduleOptions` field and the two
  settings baked into compiled immediates (``sigma``, ``alpha``) all
  enter the hash; changing any of them changes the key.
* **Corruption-safe loads** — a missing, truncated, version-mismatched
  or otherwise undecodable cache file is *never* an error: the lookup
  reports a miss (and bumps a counter) and the caller recompiles.  A
  loaded artifact passes the interpreter's hazard analysis (structural
  and data hazards) before it is trusted.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..arch.trace import check_schedule
from .scheduler import Schedule, ScheduleOptions
from .serialize import (
    FORMAT_VERSION,
    SerializationError,
    schedule_from_dict,
    schedule_to_dict,
)

__all__ = [
    "CACHE_FORMAT_VERSION",
    "CacheStats",
    "CompiledArtifact",
    "ScheduleCache",
    "VectorSlot",
    "pattern_fingerprint",
]

# Version of the on-disk artifact container.  Bump whenever the
# artifact layout, the register-file allocation discipline, or the
# meaning of any hashed field changes; old files then silently miss.
# v2 added per-kernel replay-trace validation stamps (``traces``) and
# v3 per-iteration stamps (``fusion``) for an execution mode since
# retired.  Both maps were dropped — every trace is now hazard-checked
# whenever it is lowered — and neither changed any other field's
# meaning.  v4: the factorization rotates one scratch accumulator per
# lane, so a v3 ``factor`` schedule prices a different kernel.  v5: a
# schedule's slots run to the end of its last op, so a v4 schedule
# that closes on a double-pumped op is one slot short.
CACHE_FORMAT_VERSION = 5


# sha256 states after each configuration header seen, keyed by the
# repr of every header value (so keys that compare equal — 0.0 and
# -0.0, 1 and True — cannot share a state).  Bounded: an ablation sweep
# over many option sets clears it instead of growing it.
_HEADER_STATES: dict[tuple, "hashlib._Hash"] = {}
_HEADER_STATES_MAX = 256


def _header_state(
    options: ScheduleOptions, c, variant, ordering, lower_method, sigma, alpha
) -> "hashlib._Hash":
    """A fresh copy of the sha256 state after the configuration header;
    the header is serialized once per configuration."""
    key = (
        type(options),
        tuple(repr(getattr(options, f.name)) for f in dataclasses.fields(options)),
        int(c),
        str(variant),
        str(ordering),
        str(lower_method),
        repr(float(sigma)),
        repr(float(alpha)),
    )
    state = _HEADER_STATES.get(key)
    if state is None:
        header = {
            "cache_format": CACHE_FORMAT_VERSION,
            "schedule_format": FORMAT_VERSION,
            "c": int(c),
            "variant": str(variant),
            "ordering": str(ordering),
            "lower_method": str(lower_method),
            "sigma": float(sigma),
            "alpha": float(alpha),
            "options": {
                k: v if isinstance(v, (bool, int, float, str)) else repr(v)
                for k, v in sorted(dataclasses.asdict(options).items())
            },
        }
        state = hashlib.sha256(json.dumps(header, sort_keys=True).encode())
        if len(_HEADER_STATES) >= _HEADER_STATES_MAX:
            _HEADER_STATES.clear()
        _HEADER_STATES[key] = state
    return state.copy()


def pattern_fingerprint(
    problem,
    *,
    variant: str,
    c: int,
    options: ScheduleOptions,
    ordering: str = "amd",
    lower_method: str = "column",
    sigma: float = 1e-6,
    alpha: float = 1.6,
) -> str:
    """Stable hex key for (sparsity pattern, architecture config).

    ``sigma`` and ``alpha`` participate because the lowering bakes them
    into instruction immediates (the ``axpby``/``ew_scale`` scalars of
    the ADMM vector kernels); all other solver settings only affect
    run-time streams and control flow, never the compiled program.
    """
    h = _header_state(
        options, c, variant, ordering, lower_method, sigma, alpha
    )
    for label, mat in (("P", problem.p_upper), ("A", problem.a)):
        h.update(label.encode())
        h.update(np.asarray(mat.shape, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mat.indptr, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(mat.indices, dtype=np.int64).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class VectorSlot:
    """One named register-file region of a compiled solver binary.

    Recorded so a cache hit can reproduce the exact allocator state the
    schedules were compiled against (ops reference absolute bank/address
    locations).
    """

    name: str
    length: int
    rotation: int
    base: int


@dataclass
class CompiledArtifact:
    """Everything a warm :class:`~repro.backends.mib.MIBSolver` needs to
    skip lowering and scheduling: the per-kernel schedules and the
    register-file layout they were compiled against.
    """

    key: str
    schedules: dict[str, Schedule]
    vectors: list[VectorSlot]

    def to_dict(self) -> dict:
        return {
            "cache_format_version": CACHE_FORMAT_VERSION,
            "key": self.key,
            "vectors": [
                [v.name, v.length, v.rotation, v.base] for v in self.vectors
            ],
            "schedules": {
                name: schedule_to_dict(s) for name, s in self.schedules.items()
            },
        }

    @classmethod
    def from_dict(cls, raw: dict) -> "CompiledArtifact":
        version = raw.get("cache_format_version")
        if version != CACHE_FORMAT_VERSION:
            raise SerializationError(
                f"unsupported cache format version {version!r}"
            )
        return cls(
            key=str(raw["key"]),
            schedules={
                str(name): schedule_from_dict(s)
                for name, s in raw["schedules"].items()
            },
            vectors=[
                VectorSlot(str(n), int(l), int(r), int(b))
                for n, l, r, b in raw["vectors"]
            ],
        )


@dataclass
class CacheStats:
    """Hit/miss/evict observability, surfaced in suite summaries."""

    hits: int = 0
    memory_hits: int = 0
    disk_hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    disk_errors: int = 0  # corrupt / truncated / version-mismatched files
    restore_errors: int = 0  # artifact loaded but could not be applied

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def rows(self) -> list[tuple[str, object]]:
        """Key/value rows for :func:`~repro.analysis.report.kv_block`."""
        return [
            ("cache lookups", self.lookups),
            ("cache hits (memory / disk)", f"{self.memory_hits} / {self.disk_hits}"),
            ("cache misses", self.misses),
            ("cache hit rate", f"{self.hit_rate:.1%}"),
            ("cache stores", self.stores),
            ("cache evictions", self.evictions),
            ("cache load errors", self.disk_errors + self.restore_errors),
        ]

    def merge(self, other: "CacheStats") -> None:
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class ScheduleCache:
    """Two-level (LRU memory + disk) cache of compiled solver binaries.

    Parameters
    ----------
    cache_dir:
        Directory for persisted artifacts (``<key>.mibc`` JSON files);
        ``None`` keeps the cache memory-only.  Multiple processes may
        share one directory — writes are atomic (write-temp + rename)
        and loads tolerate any corruption by recompiling.
    max_entries:
        In-memory LRU capacity (artifacts, not bytes).  Eviction only
        drops the memory copy; the disk copy, if any, survives.

    Thread safety: the in-memory LRU and the statistics counters are
    guarded by one lock, so a single cache may be shared by the serve
    layer's worker threads.  Disk I/O happens *outside* the lock — two
    threads may both miss and both store (last atomic rename wins, the
    artifacts are identical by construction), and a read racing a
    writer at worst observes a missing/partial file, which the
    load-or-recompile discipline already absorbs as a miss.
    """

    def __init__(
        self, cache_dir: str | Path | None = None, *, max_entries: int = 64
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        if self.cache_dir is not None:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        self.max_entries = max_entries
        self._memory: OrderedDict[str, CompiledArtifact] = OrderedDict()
        self._lock = threading.RLock()
        self.stats = CacheStats()

    # ------------------------------------------------------------------
    def key_for(
        self,
        problem,
        *,
        variant: str,
        c: int,
        options: ScheduleOptions,
        ordering: str = "amd",
        lower_method: str = "column",
        settings=None,
    ) -> str:
        """Fingerprint a problem + configuration (see
        :func:`pattern_fingerprint`)."""
        sigma = float(settings.sigma) if settings is not None else 1e-6
        alpha = float(settings.alpha) if settings is not None else 1.6
        return pattern_fingerprint(
            problem,
            variant=variant,
            c=c,
            options=options,
            ordering=ordering,
            lower_method=lower_method,
            sigma=sigma,
            alpha=alpha,
        )

    def path_for(self, key: str) -> Path | None:
        """On-disk location of one artifact (``None`` if memory-only)."""
        if self.cache_dir is None:
            return None
        return self.cache_dir / f"{key}.mibc"

    # ------------------------------------------------------------------
    def get(self, key: str) -> CompiledArtifact | None:
        """Look up a compiled artifact; ``None`` means recompile."""
        with self._lock:
            artifact = self._memory.get(key)
            if artifact is not None:
                self._memory.move_to_end(key)
                self.stats.hits += 1
                self.stats.memory_hits += 1
                return artifact
        artifact = self._load_disk(key)
        with self._lock:
            if artifact is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._remember(key, artifact)
                return artifact
            self.stats.misses += 1
            return None

    def put(self, key: str, artifact: CompiledArtifact) -> None:
        """Store a freshly compiled artifact (memory + disk)."""
        with self._lock:
            self.stats.stores += 1
            self._remember(key, artifact)
        self._store_disk(key, artifact)

    def __len__(self) -> int:
        with self._lock:
            return len(self._memory)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._memory:
                return True
        path = self.path_for(key)
        return path is not None and path.exists()

    # ------------------------------------------------------------------
    def _remember(self, key: str, artifact: CompiledArtifact) -> None:
        self._memory[key] = artifact
        self._memory.move_to_end(key)
        while len(self._memory) > self.max_entries:
            self._memory.popitem(last=False)
            self.stats.evictions += 1

    def _load_disk(self, key: str) -> CompiledArtifact | None:
        """Load-or-recompile discipline: any failure is a miss."""
        path = self.path_for(key)
        if path is None or not path.exists():
            return None
        try:
            artifact = CompiledArtifact.from_dict(json.loads(path.read_text()))
            if artifact.key != key:
                raise SerializationError("artifact key mismatch")
            for schedule in artifact.schedules.values():
                # The hazard analysis every lowering runs: ``solve()``
                # prices a schedule without ever lowering it, so a file
                # must pass here before its cycles are trusted.
                check_schedule(
                    schedule.slots,
                    c=schedule.c,
                    extra_latency=schedule.extra_latency,
                )
        except Exception:
            # Truncated file, bad JSON, version mismatch, tampered or
            # hazardous schedule — silently fall back to recompilation.
            with self._lock:
                self.stats.disk_errors += 1
            return None
        return artifact

    def _store_disk(self, key: str, artifact: CompiledArtifact) -> None:
        path = self.path_for(key)
        if path is None:
            return
        payload = json.dumps(artifact.to_dict())
        tmp = path.with_name(
            f"{path.name}.{os.getpid()}.{threading.get_ident()}.tmp"
        )
        try:
            tmp.write_text(payload)
            os.replace(tmp, path)
        except OSError:
            # A read-only or vanished cache dir degrades to memory-only.
            with self._lock:
                self.stats.disk_errors += 1
            try:
                tmp.unlink(missing_ok=True)
            except OSError:
                pass
