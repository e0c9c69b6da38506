"""The MIB backend: compile a QP's sparsity pattern, solve with exact
cycle accounting, and (for validation) execute the core kernels on the
network simulator.

A :class:`MIBSolver` is the reproduction's counterpart of the paper's
prototype system:

* **compile once per sparsity pattern** — lowering + multi-issue
  scheduling of every kernel the chosen algorithm variant needs
  (Section III-D; the compile time is amortized over the many instances
  that share the pattern);
* **solve** — runs the ADMM algorithm (bit-identical to the reference
  :class:`~repro.solver.OSQPSolver`, which is the same algorithm the
  hardware executes) and accounts the *exact* cycles of every kernel
  invocation from its static schedule, yielding a deterministic
  runtime (the property Fig. 11 measures);
* **network-executed validation** — the whole direct-variant ADMM
  solve (:meth:`MIBSolver.solve_on_network`), the KKT solve and the
  indirect variant's PCG run through the cycle-level simulator.  They
  execute the host's control (:func:`~repro.solver.admm.admm_loop`,
  :func:`~repro.solver.indirect.pcg`), so only the arithmetic moves onto
  the network, and the host computation is its independent oracle.
"""

from __future__ import annotations

import gc
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..arch import (
    CompiledTrace,
    NetworkSimulator,
    SimulationStats,
    StreamBuffers,
    compile_trace,
)
from ..arch.resources import clock_frequency_hz
from ..compiler import (
    CompiledArtifact,
    KernelBuilder,
    NetworkProgram,
    Schedule,
    ScheduleCache,
    ScheduleOptions,
    VectorSlot,
    row_major_view,
    schedule_program,
)
from ..solver import (
    DirectKKTSolver,
    IndirectKKTSolver,
    OSQPSolver,
    QPProblem,
    Settings,
    SolveResult,
    SolverStatus,
)
from ..solver.admm import admm_loop
from ..solver.indirect import pcg

__all__ = [
    "CHECK_KERNELS",
    "ITERATION_KERNELS",
    "MIBSolver",
    "MIBSolveReport",
    "MIBNetworkSolveReport",
    "MIBBatchReport",
    "PCIE_BANDWIDTH",
    "PCIE_LATENCY",
]

PCIE_BANDWIDTH = 8e9  # bytes/s host link (Gen3 x8 effective)
PCIE_LATENCY = 10e-6  # per transfer

# The ADMM loop body as data: the kernels one iteration executes, in
# order, plus the residual products appended on check iterations.  The
# network executor (``MIBSolver.solve_on_network``) and the crossing
# probe (``MIBSolver.iteration_crossings``) both read this program
# rather than hard-coding kernel names in control flow.
ITERATION_KERNELS = ("iter_pre", "kkt_solve", "iter_post")
CHECK_KERNELS = ("residuals",)


@contextmanager
def _gc_paused():
    """Pause the cyclic collector for the span of a compile.

    A compile allocates ~10⁵ long-lived ``NetOp`` / ``Location`` / list
    objects, none of them garbage, and every generation-2 pass re-walks
    all of them — a quarter of a first touch.  On the way out the
    survivors are promoted by one young-generation pass, so the backlog
    is paid by the request that made it and not by the next few.
    Correct under concurrent compiles without a lock: a thread that
    found the collector disabled never re-enables it, the thread that
    disabled it always does.
    """
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if was_enabled:
            gc.enable()
            gc.collect(1)


@dataclass
class MIBSolveReport:
    """Outcome of a solve on the MIB backend."""

    result: SolveResult
    cycles: int
    runtime_seconds: float
    clock_hz: float
    kernel_cycles: dict[str, int]
    kernel_invocations: dict[str, int]
    transfer_seconds: float

    @property
    def solve_seconds(self) -> float:
        """Pure on-device time (excludes PCIe)."""
        return self.cycles / self.clock_hz


@dataclass
class MIBNetworkSolveReport:
    """Outcome of a fully network-executed solve
    (:meth:`MIBSolver.solve_on_network`)."""

    status: SolverStatus
    x: np.ndarray
    z: np.ndarray
    y: np.ndarray
    iterations: int
    cycles: int
    primal_residual: float
    dual_residual: float
    rho_updates: int
    objective: float
    primal_infeasibility_certificate: np.ndarray | None = None
    dual_infeasibility_certificate: np.ndarray | None = None
    # Host→numpy crossings of the whole solve (observability, not
    # priced in cycles).  Excluded from equality: execution modes are
    # bit-identical in results and cycles while differing exactly here.
    host_crossings: int = field(default=0, compare=False)

    @property
    def solved(self) -> bool:
        return self.status is SolverStatus.SOLVED


@dataclass
class MIBBatchReport:
    """Outcome of :meth:`MIBSolver.solve_batch`: one network-executed
    report per instance."""

    lanes: list[MIBNetworkSolveReport]  # input order


@dataclass
class _CompiledKernels:
    schedules: dict[str, Schedule] = field(default_factory=dict)

    def cycles(self, name: str) -> int:
        return self.schedules[name].cycles

    def __contains__(self, name: str) -> bool:
        return name in self.schedules


class MIBSolver:
    """Pattern-specific compiled QP solver on the MIB architecture.

    Parameters
    ----------
    problem:
        The QP (its *pattern* drives compilation; values stream in).
    variant:
        ``"direct"`` or ``"indirect"``.
    c:
        Network width (16 and 32 are the paper's prototypes).
    settings:
        ADMM settings shared with the algorithmic reference.
    multi_issue / prefetch:
        Scheduler features (exposed for the ablation benchmarks).
    cache:
        Optional shared :class:`~repro.compiler.ScheduleCache`.  On a
        key hit (same sparsity pattern + configuration) construction
        skips lowering and scheduling entirely and restores the
        compiled kernels from the cached artifact; ``cache_hit``
        records which path ran.  Instances rebound with
        :meth:`update_values` never recompile, so they hit the cache
        by construction.
    execution:
        How the network-executed paths run kernels: ``"replay"`` (the
        default) validates each schedule once, lowers it to a
        :class:`~repro.arch.trace.CompiledTrace` and re-executes the
        vectorized trace on every invocation; ``"interpret"`` runs the
        cycle-by-cycle oracle interpreter every time.  The two are
        bit-identical.
    """

    # Super-pipelining model (paper future work): one extra register
    # stage per datapath stage roughly doubles the commit latency and
    # raises the achievable clock by ~40%.
    SUPER_PIPELINE_CLOCK_GAIN = 1.4

    # Register-file depth of the network-execution simulator (deep
    # enough for the prefetch scratch region at 1 << 22).
    SIM_DEPTH = 1 << 24

    def __init__(
        self,
        problem: QPProblem,
        *,
        variant: str = "direct",
        c: int = 32,
        settings: Settings | None = None,
        multi_issue: bool = True,
        prefetch: bool = True,
        ordering: str = "amd",
        lower_method: str = "column",
        super_pipelined: bool = False,
        cache: ScheduleCache | None = None,
        execution: str = "replay",
    ) -> None:
        if execution not in ("replay", "interpret"):
            raise ValueError(
                f"execution must be 'replay' or 'interpret', got {execution!r}"
            )
        self.problem = problem
        self.variant = variant
        self.c = c
        self.execution = execution
        self._sim: NetworkSimulator | None = None
        self._traces: dict[str, CompiledTrace] = {}
        self.super_pipelined = super_pipelined
        self.clock_hz = clock_frequency_hz(c)
        extra_latency = 0
        if super_pipelined:
            from ..arch import Butterfly

            extra_latency = Butterfly(c).latency  # doubled pipeline depth
            self.clock_hz *= self.SUPER_PIPELINE_CLOCK_GAIN
        self.options = ScheduleOptions(
            multi_issue=multi_issue,
            prefetch=prefetch,
            extra_latency=extra_latency,
        )
        self.reference = OSQPSolver(
            problem,
            variant=variant,
            settings=settings,
            ordering=ordering,
            lower_method=lower_method,
        )
        if variant == "direct":
            self._kkt_dim = self.reference.kkt_solver.dim
        self.builder = KernelBuilder(c, depth=1 << 24)
        self.kernels = _CompiledKernels()
        self.cache_key: str | None = None
        self.cache_hit = False
        t0 = time.perf_counter()
        if cache is not None:
            self.cache_key = cache.key_for(
                problem,
                variant=variant,
                c=c,
                options=self.options,
                ordering=ordering,
                lower_method=lower_method,
                settings=self.reference.settings,
            )
            artifact = cache.get(self.cache_key)
            if artifact is not None:
                try:
                    self._restore_compiled(artifact)
                    self.cache_hit = True
                except Exception:
                    # A stale or inapplicable artifact degrades to a
                    # plain recompile, never a failure.
                    cache.stats.restore_errors += 1
                    self.builder = KernelBuilder(c, depth=1 << 24)
                    self.kernels = _CompiledKernels()
        if not self.cache_hit:
            with _gc_paused():
                sp = self.reference.scaling.scaled
                a_view, p_view = row_major_view(sp.a), row_major_view(sp.p_full)
                if variant == "direct":
                    self._compile_direct()
                else:
                    self._compile_indirect(a_view, p_view)
                self._compile_vector_kernels(a_view, p_view)
                if variant == "direct":
                    self._compile_network_iteration()
                    self._compile_factor()
            if cache is not None:
                cache.put(self.cache_key, self._to_artifact(self.cache_key))
        self.compile_seconds = time.perf_counter() - t0

    # ------------------------------------------------------------------
    # compilation cache
    # ------------------------------------------------------------------
    def _restore_compiled(self, artifact: CompiledArtifact) -> None:
        """Rebuild the compiled state from a cached artifact.

        Replays the register-file allocations (so the schedules'
        absolute locations resolve to the same regions) and installs the
        schedules.  No lowering, no scheduling.
        """
        for slot in artifact.vectors:
            view = self.builder.alloc.allocate(
                slot.name, slot.length, rotation=slot.rotation
            )
            if view.base != slot.base:
                raise ValueError(
                    f"allocator layout drift restoring {slot.name!r}"
                )
        self.kernels.schedules.update(artifact.schedules)

    def _to_artifact(self, key: str) -> CompiledArtifact:
        """Snapshot the compiled state for the cache."""
        return CompiledArtifact(
            key=key,
            schedules=dict(self.kernels.schedules),
            vectors=[
                VectorSlot(v.name, v.length, v.rotation, v.base)
                for v in self.builder.alloc.views()
            ],
        )

    # ------------------------------------------------------------------
    # trace-compiled execution
    # ------------------------------------------------------------------
    def _network_sim(self, *, reset: bool = True) -> NetworkSimulator:
        """The shared lazily-created simulator.

        One ``SIM_DEPTH``-deep register file is allocated per solver
        and reused across every network-execution entry point; each
        entry resets the allocator-managed region instead of paying a
        fresh multi-GiB allocation per call.
        """
        if self._sim is None:
            self._sim = NetworkSimulator(self.c, depth=self.SIM_DEPTH)
        elif reset:
            self._sim.reset(self.builder.alloc.used_rows)
        return self._sim

    def _trace(self, name: str, sim: NetworkSimulator) -> CompiledTrace:
        """The kernel's compiled trace (validate-and-lower on first use).

        Every lowering runs the interpreter's hazard checks, so a
        schedule restored from the cache is trusted no further than one
        just scheduled.  Values never invalidate a trace: streamed
        coefficients rebind at every replay, which is what makes
        :meth:`update_values` and ρ refactorization free of
        recompilation.
        """
        trace = self._traces.get(name)
        if trace is None:
            trace = compile_trace(
                self.kernels.schedules[name].slots,
                c=self.c,
                depth=sim.rf.depth,
                extra_latency=sim.extra_latency,
                name=name,
            )
            self._traces[name] = trace
        return trace

    def _run_kernel(
        self, sim: NetworkSimulator, name: str, streams: StreamBuffers
    ) -> SimulationStats:
        """Execute one compiled kernel in the configured mode."""
        if self.execution == "interpret":
            return sim.run(self.kernels.schedules[name].slots, streams)
        return self._trace(name, sim).replay(sim, streams)

    def iteration_crossings(self, *, check: bool = False) -> int:
        """Steady-state host→numpy crossings of one network-executed
        ADMM iteration in the configured mode (``check`` adds the
        residual-product kernels).

        The observability counterpart of :meth:`iteration_cycles`:
        crossings are host dispatch overhead (one per numpy call a
        replay dispatches), not simulated time.
        """
        names = ITERATION_KERNELS + (CHECK_KERNELS if check else ())
        if self.variant != "direct":
            names = ("admm_vector",)
        if self.execution == "interpret":
            return sum(self.kernels.schedules[n].n_ops for n in names)
        sim = self._network_sim(reset=False)
        return sum(self._trace(n, sim).crossings for n in names)

    def compile_traces(self, names: list[str] | None = None) -> None:
        """Eagerly validate-and-lower kernels to replay traces (all of
        them by default), front-loading trace compilation before timed
        iteration loops."""
        sim = self._network_sim(reset=False)
        for name in names or list(self.kernels.schedules):
            self._trace(name, sim)

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    def _schedule(self, name: str, ops) -> Schedule:
        sched = schedule_program(
            NetworkProgram(name, list(ops)), self.c, self.options
        )
        self.kernels.schedules[name] = sched
        return sched

    def _compile_direct(self) -> None:
        kkt = self.reference.kkt_solver
        assert isinstance(kkt, DirectKKTSolver)
        sym = kkt.symbolic
        dim = kkt.dim
        kb = self.builder
        bx = kb.vector("kkt_b", dim)  # incoming right-hand side
        px = kb.vector("kkt_x", dim)  # permuted solve buffer
        # The factorization's registers; ``_compile_factor`` lowers it
        # once every other kernel has its layout.
        kb.vector("factor_y", dim)
        kb.vector("factor_d", dim)
        kb.vector("factor_dinv", dim)
        # The KKT triangular solve pipeline of Listing 1:
        # permutate -> L_solve -> D_solve -> Lt_solve -> inverse_permutate.
        lower = (
            kb.lsolve_columns
            if self.reference.kkt_solver.lower_method == "column"
            else kb.lsolve_rows
        )
        perm = kkt.perm.perm.tolist()
        solve_ops = (
            kb.gather(px, range(dim), bx, perm, tag="permutate")
            + lower(sym, px, "L")
            + kb.dsolve(px, "Dinv")
            + kb.ltsolve(sym, px, "L")
            + kb.gather(bx, perm, px, range(dim), tag="inv_permutate")
        )
        self._schedule("kkt_solve", solve_ops)

    def _compile_factor(self) -> None:
        """The numeric refactorization (runs at setup and on every ρ
        update), lowered last so that its per-lane scratch copies sit
        past every other kernel's registers and move none of them."""
        kkt = self.reference.kkt_solver
        assert isinstance(kkt, DirectKKTSolver)
        kb = self.builder
        alloc = kb.alloc
        self._schedule(
            "factor",
            kb.factorization(
                kkt.symbolic,
                kkt._permuted_upper,
                y=kb.lane_copies(alloc.get("factor_y")),
                d=alloc.get("factor_d"),
                dinv=alloc.get("factor_dinv"),
                k_stream="K",
            ),
        )

    def _compile_indirect(self, a_view, p_view) -> None:
        kkt = self.reference.kkt_solver
        assert isinstance(kkt, IndirectKKTSolver)
        sp = self.reference.scaling.scaled
        kb = self.builder
        n, m = sp.n, sp.m
        v = kb.vector("cg_v", n)
        sv = kb.vector("cg_sv", n)
        pv = kb.vector("cg_pv", n)
        atv = kb.vector("cg_atv", n)
        av = kb.vector("cg_av", m)
        # One application of S = P + σI + Aᵀ·diag(ρ)·A (Algorithm 2's
        # work horse): MAC for A and P, column elimination for Aᵀ.
        ops = (
            kb.spmv(a_view, v, av, "A", tag="spmv_A")
            + kb.stream_mul(av, av, "rho")
            + kb.spmv_transpose(a_view, av, atv, "A", tag="spmv_At")
            + kb.spmv(p_view, v, pv, "P", tag="spmv_P")
            + kb.ew_add(sv, pv, atv)
            + kb.axpby(sv, sv, v, 1.0, self.reference.settings.sigma)
        )
        self._schedule("apply_s", ops)
        # CG vector updates per iteration (λ, x, r, d, μ, p lines).
        r = kb.vector("cg_r", n)
        d = kb.vector("cg_d", n)
        p = kb.vector("cg_p", n)
        cg_vec = (
            kb.axpby(v, v, p, 1.0, 1.0)  # x += λp (λ folded host-side)
            + kb.axpby(r, r, sv, 1.0, 1.0)  # r += λSp
            + kb.stream_mul(d, r, "Minv")  # d = M⁻¹r
            + kb.axpby(p, d, p, -1.0, 1.0)  # p = −d + μp
        )
        self._schedule("cg_vector", cg_vec)

    def _lower_rhs(self) -> list:
        """Algorithm 1's KKT right-hand side: ``σx − q`` into
        ``adm_rhs_top`` and ``z − y/ρ`` into ``adm_tmp_m``."""
        kb, get = self.builder, self.builder.alloc.get
        rhs_top, tmp_m = get("adm_rhs_top"), get("adm_tmp_m")
        return (
            kb.ew_scale(rhs_top, get("adm_x"), self.reference.settings.sigma)
            + kb.stream_axpy(rhs_top, rhs_top, "q", -1.0)
            + kb.stream_mul(tmp_m, get("adm_y"), "rho_inv")
            + kb.ew_sub(tmp_m, get("adm_z"), tmp_m)
        )

    def _lower_update(self, tmp) -> list:
        """Algorithm 1's relaxation, projection Π and dual update from
        ``adm_xt`` / ``adm_zt``, through the scratch vector ``tmp``."""
        kb, get = self.builder, self.builder.alloc.get
        x, xt, z, zt, y, w = (
            get(f"adm_{v}") for v in ("x", "xt", "z", "zt", "y", "w")
        )
        alpha = self.reference.settings.alpha
        return (
            kb.axpby(x, xt, x, alpha, 1.0 - alpha)
            + kb.axpby(w, zt, z, alpha, 1.0 - alpha)
            + kb.stream_mul(tmp, y, "rho_inv")
            + kb.ew_add(tmp, w, tmp)
            + kb.clip(z, tmp, "bounds", length=z.length)  # projection Π
            + kb.ew_sub(tmp, w, z)
            + kb.stream_mul(tmp, tmp, "rho")
            + kb.ew_add(y, y, tmp)  # dual update: y += ρ(w − z)
        )

    def _compile_vector_kernels(self, a_view, p_view) -> None:
        """The per-ADMM-iteration vector work (Algorithm 1 lines 4-7)
        and the residual products."""
        kb = self.builder
        sp = self.reference.scaling.scaled
        n, m = sp.n, sp.m
        # Allocation order fixes the register layout every schedule
        # addresses; ``_lower_rhs`` / ``_lower_update`` look these up.
        x = kb.vector("adm_x", n)
        kb.vector("adm_xt", n)
        kb.vector("adm_z", m)
        kb.vector("adm_zt", m)
        y = kb.vector("adm_y", m)
        kb.vector("adm_w", m)
        tmp_m = kb.vector("adm_tmp_m", m)
        kb.vector("adm_rhs_top", n)
        self._schedule("admm_vector", self._lower_rhs() + self._lower_update(tmp_m))

        # Residual computation (every check_interval iterations):
        # A·x, P·x, Aᵀ·y plus norms.
        ax = kb.vector("res_ax", m)
        px_v = kb.vector("res_px", n)
        aty = kb.vector("res_aty", n)
        res_ops = (
            kb.spmv(a_view, x, ax, "A", tag="res_A")
            + kb.spmv(p_view, x, px_v, "P", tag="res_P")
            + kb.spmv_transpose(a_view, y, aty, "A", tag="res_At")
        )
        self._schedule("residuals", res_ops)

    def _compile_network_iteration(self) -> None:
        """Phase-split per-iteration kernels for the fully network-
        executed solve (:meth:`solve_on_network`).

        ``admm_vector`` prices the iteration's vector work for the
        cycle model; these kernels lower the same work (the same
        ``_lower_rhs`` / ``_lower_update`` ops) around the KKT solve as
        Algorithm 1 orders it: ``iter_pre`` builds the right-hand side
        into the solve buffer, ``iter_post`` forms z̃ from the solution
        and applies relaxation, projection and the dual update.
        """
        kb = self.builder
        sp = self.reference.scaling.scaled
        n, m = sp.n, sp.m
        get = kb.alloc.get
        xt, z, zt = get("adm_xt"), get("adm_z"), get("adm_zt")
        y, tmp_m = get("adm_y"), get("adm_tmp_m")
        tmp2 = kb.vector("adm_tmp2_m", m)
        bx = get("kkt_b")

        pre = (
            self._lower_rhs()
            + kb.gather(bx, range(n), get("adm_rhs_top"), range(n))
            + kb.gather(bx, range(n, n + m), tmp_m, range(m))
        )
        self._schedule("iter_pre", pre)

        post = (
            kb.gather(xt, range(n), bx, range(n))
            + kb.gather(tmp_m, range(m), bx, range(n, n + m))
            + kb.ew_sub(tmp2, tmp_m, y)  # ν − y
            + kb.stream_mul(tmp2, tmp2, "rho_inv")
            + kb.ew_add(zt, z, tmp2)  # z̃ = z + (ν − y)/ρ
            + self._lower_update(tmp2)
        )
        self._schedule("iter_post", post)

    # ------------------------------------------------------------------
    def update_values(self, problem: QPProblem) -> None:
        """Bind a new numeric instance of the same sparsity pattern.

        No recompilation: the compiled schedules reference stream
        positions, so only the algorithmic state (scaled data, KKT
        values, factorization numbers) refreshes — the paper's
        amortization mechanism, priced at one ``factor`` kernel run in
        the direct variant.
        """
        self.reference.update_values(problem)
        self.problem = problem

    # ------------------------------------------------------------------
    def bind_values(self, problem: QPProblem) -> str:
        """Bind a same-pattern instance, taking the delta fast path
        when only vectors changed.

        Returns ``"delta"`` when ``A.data`` and ``P.data`` (upper
        triangle) are bitwise equal to the bound instance's — then the
        matrix rescale, KKT assembly and numeric refactorization are
        all skipped and only ``q``/``l``/``u`` rescale (the streaming
        MPC / homotopy-path shape: new measured state, new penalty,
        same plant).  Returns ``"full"`` after an ordinary
        :meth:`update_values` otherwise.  Both paths are bitwise
        equivalent: the skipped recomputation is a deterministic
        function of inputs that did not change.
        """
        cur = self.problem
        if (
            problem.a.pattern_equal(cur.a)
            and problem.p_upper.pattern_equal(cur.p_upper)
            and np.array_equal(problem.a.data, cur.a.data)
            and np.array_equal(problem.p_upper.data, cur.p_upper.data)
        ):
            # P is proven bitwise the bound instance's, so its full
            # symmetric form (objective, residual products) is too.
            problem.adopt_p_forms(p_full=cur.p_full)
            self.reference.update_vectors(problem)
            self.problem = problem
            return "delta"
        self.update_values(problem)
        return "full"

    # ------------------------------------------------------------------
    def bind_rho(self, rho: float) -> bool:
        """Install a carried ρ (session state) on the bound instance.

        :meth:`OSQPSolver.set_rho` on the reference: the KKT
        refactorization only runs when the per-constraint vector
        changed bitwise — in the steady state of a parametric stream
        (same ρ, same constraint classes) it never does.  Returns
        ``True`` when the system refactorized.
        """
        return self.reference.set_rho(rho)

    # ------------------------------------------------------------------
    # cycle accounting
    # ------------------------------------------------------------------
    def data_load_cycles(self) -> int:
        """Initial streaming of problem data into HBM-side buffers."""
        sp = self.reference.scaling.scaled
        words = sp.a.nnz + sp.p_full.nnz + 2 * sp.m + 2 * sp.n
        return -(-words // self.c)

    def iteration_cycles(self) -> int:
        """Cycles of one ADMM iteration (excluding residual checks)."""
        cycles = self.kernels.cycles("admm_vector")
        if self.variant == "direct":
            cycles += self.kernels.cycles("kkt_solve")
        return cycles

    def solve(
        self, *, x0: np.ndarray | None = None, y0: np.ndarray | None = None
    ) -> MIBSolveReport:
        """Solve the bound problem instance with exact cycle accounting.

        The algorithm trace (iterations, ρ updates, CG iterations,
        residual checks) comes from the algorithmic reference — the
        hardware runs the identical algorithm — and each event is
        priced at its kernel's scheduled cycle count.  ``x0``/``y0``
        warm-start the iteration (closed-loop MPC re-solves).
        """
        kkt = self.reference.kkt_solver
        if self.variant != "direct":
            # The CG counters run over the solver's whole life; this
            # solve is billed only its own share of them.
            assert isinstance(kkt, IndirectKKTSolver)
            cg_before = (
                kkt.diagnostics.total_iterations,
                kkt.diagnostics.calls,
            )
        result = self.reference.solve(x0=x0, y0=y0)
        st = self.reference.settings
        iters = result.iterations
        checks = iters // st.check_interval + 1
        invocations: dict[str, int] = {"admm_vector": iters, "residuals": checks}
        if self.variant == "direct":
            invocations["kkt_solve"] = iters
            # One bind refactor per solve, charged even after a delta
            # bind the host did not refactor for (DESIGN.md §5.8).
            invocations["factor"] = 1 + result.rho_updates
        else:
            cg_iters = kkt.diagnostics.total_iterations - cg_before[0]
            cg_calls = kkt.diagnostics.calls - cg_before[1]
            invocations["apply_s"] = cg_iters + cg_calls
            invocations["cg_vector"] = cg_iters
        # The pricing model: every kernel invocation at its scheduled
        # cycle count, on top of the initial data load.
        cycles = self.data_load_cycles() + sum(
            count * self.kernels.cycles(name)
            for name, count in invocations.items()
        )
        # Device cycles at the clock plus the PCIe transfer of the
        # instance in and the solution out.
        transfer_bytes = 4 * (
            self.problem.nnz + 2 * self.problem.n + 4 * self.problem.m
        )
        transfer = 2 * PCIE_LATENCY + transfer_bytes / PCIE_BANDWIDTH
        return MIBSolveReport(
            result=result,
            cycles=cycles,
            runtime_seconds=cycles / self.clock_hz + transfer,
            clock_hz=self.clock_hz,
            kernel_cycles={
                k: s.cycles for k, s in self.kernels.schedules.items()
            },
            kernel_invocations=invocations,
            transfer_seconds=transfer,
        )

    # ------------------------------------------------------------------
    # network-executed validation paths
    # ------------------------------------------------------------------
    def solve_kkt_on_network(self, rhs: np.ndarray) -> np.ndarray:
        """Execute the full KKT solve pipeline on the simulator
        (direct variant) and return the solution."""
        if self.variant != "direct":
            raise ValueError("KKT network solve is a direct-variant path")
        if rhs.shape != (self._kkt_dim,):
            raise ValueError("rhs dimension mismatch")
        sim = self._network_sim()
        streams = StreamBuffers()
        sim.rf.load_vector(self.builder.alloc.get("kkt_b"), rhs)
        self._factor_on_network(sim, streams)
        self._run_kernel(sim, "kkt_solve", streams)
        return sim.rf.read_vector(self.builder.alloc.get("kkt_b"))

    def _factor_on_network(
        self, sim: NetworkSimulator, streams: StreamBuffers
    ) -> SimulationStats:
        """Bind the bound instance's permuted KKT values, run ``factor``
        on the network and bind its L and D⁻¹ for the solves."""
        kkt = self.reference.kkt_solver
        assert isinstance(kkt, DirectKKTSolver)
        streams.bind("K", kkt._permuted_upper.data)
        stats = self._run_kernel(sim, "factor", streams)
        streams.bind(
            "L",
            np.array([sim.lbuf.get(p, 0.0) for p in range(kkt.symbolic.l_nnz)]),
        )
        streams.bind(
            "Dinv", sim.rf.read_vector(self.builder.alloc.get("factor_dinv"))
        )
        return stats

    def solve_on_network(
        self, *, max_iter: int | None = None
    ) -> "MIBNetworkSolveReport":
        """Run the *entire* ADMM solve through the cycle-level simulator
        (direct variant).

        Every operation of Algorithm 1 executes as scheduled network
        instructions: the numeric factorization, the per-iteration
        right-hand-side build, the permuted triangular solves, the
        relaxation/projection/dual updates, the residual matrix
        products, and the on-network refactorization when ρ adapts.
        The host only performs the Table-I ``norm_inf`` reductions for
        termination and the ρ control-flow decision — mirroring the
        prototype, whose host involvement is limited to start/finish
        transfers.

        Intended for validation at small problem sizes (the Python
        simulator executes every node of every cycle); :meth:`solve`
        is the fast cycle-priced path.
        """
        if self.variant != "direct":
            raise ValueError("solve_on_network supports the direct variant")
        if max_iter is None:
            max_iter = self.reference.settings.max_iter
        if max_iter < 0:
            raise ValueError(f"max_iter must be >= 0, got {max_iter}")
        return self._admm_on_network(max_iter)

    def _admm_on_network(self, max_iter: int) -> MIBNetworkSolveReport:
        """The network executor of :func:`~repro.solver.admm.admm_loop`
        over the bound instance.

        The loop decides; this method executes: it binds the streams,
        runs ``ITERATION_KERNELS`` (+ ``CHECK_KERNELS`` on a check) on
        the simulator, reads a check's products and the final iterates
        off the register file, refactors on the network when ρ moves,
        and counts cycles and host crossings.
        """
        ref = self.reference
        sc = ref.scaling
        sp = sc.scaled
        alloc = self.builder.alloc
        v_x, v_y, v_z = (
            alloc.get("adm_x"), alloc.get("adm_y"), alloc.get("adm_z")
        )
        v_ax, v_px, v_aty = (
            alloc.get("res_ax"), alloc.get("res_px"), alloc.get("res_aty")
        )
        sim = self._network_sim()
        read = sim.rf.read_vector
        streams = StreamBuffers()
        streams.bind("q", sp.q)
        streams.bind("A", sp.a.data)
        streams.bind("P", sp.p_full.data)
        streams.bind("bounds", np.concatenate([sp.l, sp.u]))
        cycles = self.data_load_cycles()
        crossings = 0

        def tally(stats: SimulationStats) -> None:
            nonlocal cycles, crossings
            cycles += stats.cycles
            crossings += stats.host_crossings

        def refactor() -> None:
            streams.bind("rho", ref.rho_vec)
            streams.bind("rho_inv", 1.0 / ref.rho_vec)
            tally(self._factor_on_network(sim, streams))

        def iterate(iteration: int, check: bool):
            if check:
                # Previous-iteration iterates for the δx/δy certificates.
                x_prev, y_prev = read(v_x), read(v_y)
            for name in ITERATION_KERNELS + (CHECK_KERNELS if check else ()):
                tally(self._run_kernel(sim, name, streams))
            if not check:
                return None
            return (
                read(v_z),
                read(v_ax),
                read(v_px),
                read(v_aty),
                read(v_x) - x_prev,
                read(v_y) - y_prev,
            )

        refactor()
        status, iterations, prim, dual, rho_updates, cert_p, cert_d = (
            admm_loop(ref, iterate, max_iter, refactor=refactor)
        )
        x = sc.unscale_x(read(v_x))
        return MIBNetworkSolveReport(
            status=status,
            x=x,
            z=sc.unscale_z(read(v_z)),
            y=sc.unscale_y(read(v_y)),
            iterations=iterations,
            cycles=cycles,
            primal_residual=float(prim),
            dual_residual=float(dual),
            rho_updates=rho_updates,
            objective=self.problem.objective(x),
            primal_infeasibility_certificate=cert_p,
            dual_infeasibility_certificate=cert_d,
            host_crossings=crossings,
        )

    def bind_instance(
        self, problem: QPProblem, *, rho0: float | None = None
    ) -> None:
        """Rebind this compiled solver to a same-pattern instance and
        reset ρ to ``rho0`` (default: the configured initial value).

        A later :meth:`solve_on_network` then starts from ``rho0``
        regardless of where a previous solve's adaptation ended — what
        every lane of :meth:`solve_batch` does.  The rescale reuses
        this solver's equilibration (a fresh solver would compute its
        own Ruiz scaling and diverge bitwise).
        """
        self.update_values(problem)
        ref = self.reference
        ref.set_rho(ref.settings.rho if rho0 is None else rho0)

    def solve_batch(
        self,
        problems: list[QPProblem],
        *,
        max_iter: int | None = None,
        rho0: float | None = None,
    ) -> MIBBatchReport:
        """Network-solve same-pattern instances one after another: lane
        *i* is :meth:`bind_instance` ``(problems[i], rho0=rho0)`` +
        :meth:`solve_on_network` ``(max_iter=max_iter)``.

        The variant, a non-empty input and every lane's pattern are
        checked before anything binds, so a rejected call leaves the
        bound instance untouched; a successful call leaves the solver
        bound to the last lane.  The traced layer walk's engine probe
        (``benchmarks/e2e/walk.py``) is the only caller, and ROADMAP
        item 6 removes both.
        """
        if self.variant != "direct":
            raise ValueError("solve_batch supports the direct variant")
        if not problems:
            raise ValueError("solve_batch needs at least one problem")
        for pr in problems:
            if not pr.a.pattern_equal(self.problem.a) or not (
                pr.p_upper.pattern_equal(self.problem.p_upper)
            ):
                raise ValueError("solve_batch requires identical patterns")
        lanes = []
        for pr in problems:
            self.bind_instance(pr, rho0=rho0)
            lanes.append(self.solve_on_network(max_iter=max_iter))
        return MIBBatchReport(lanes=lanes)

    def solve_reduced_on_network(
        self,
        b: np.ndarray,
        *,
        tol: float = 1e-8,
        max_iter: int = 500,
    ) -> tuple[np.ndarray, int]:
        """PCG on ``S x = b`` with every S-product executed on the
        simulator (indirect-variant validation).

        The CG control flow (:func:`~repro.solver.indirect.pcg`, the λ/μ
        updates of Algorithm 2) runs host-side as the prototype's
        sequencer would; the matrix-vector work — the entirety of the
        FLOPs — is :meth:`apply_s_on_network`, the compiled ``apply_s``
        network program.
        """
        if self.variant != "indirect":
            raise ValueError("reduced-system network solve is indirect-only")
        kkt = self.reference.kkt_solver
        assert isinstance(kkt, IndirectKKTSolver)
        x, iterations, _ = pcg(
            self.apply_s_on_network, kkt._m_inv, b, np.zeros(b.size),
            tol=tol, max_iter=max_iter,
        )
        return x, iterations

    def run_admm_vector_on_network(
        self,
        x: np.ndarray,
        xt: np.ndarray,
        z: np.ndarray,
        zt: np.ndarray,
        y: np.ndarray,
    ) -> dict[str, np.ndarray]:
        """Execute the per-iteration vector kernel on the simulator.

        Returns the updated iterates plus the KKT right-hand-side top
        block the kernel produced, for comparison against the host
        formulas of Algorithm 1 (lines 4-7).
        """
        sp = self.reference.scaling.scaled
        sim = self._network_sim()
        streams = StreamBuffers()
        streams.bind("q", sp.q)
        streams.bind("rho", self.reference.rho_vec)
        streams.bind("rho_inv", 1.0 / self.reference.rho_vec)
        streams.bind("bounds", np.concatenate([sp.l, sp.u]))
        alloc = self.builder.alloc
        for name, values in (
            ("adm_x", x),
            ("adm_xt", xt),
            ("adm_z", z),
            ("adm_zt", zt),
            ("adm_y", y),
        ):
            sim.rf.load_vector(alloc.get(name), values)
        self._run_kernel(sim, "admm_vector", streams)
        return {
            "x": sim.rf.read_vector(alloc.get("adm_x")),
            "z": sim.rf.read_vector(alloc.get("adm_z")),
            "y": sim.rf.read_vector(alloc.get("adm_y")),
            "rhs_top": sim.rf.read_vector(alloc.get("adm_rhs_top")),
        }

    def apply_s_on_network(self, v: np.ndarray) -> np.ndarray:
        """Execute one S·v product on the simulator (indirect variant)."""
        if self.variant != "indirect":
            raise ValueError("S-product network path is indirect-only")
        sp = self.reference.scaling.scaled
        sim = self._network_sim()
        streams = StreamBuffers()
        streams.bind("A", sp.a.data)
        streams.bind("P", sp.p_full.data)
        streams.bind("rho", self.reference.rho_vec)
        sim.rf.load_vector(self.builder.alloc.get("cg_v"), v)
        self._run_kernel(sim, "apply_s", streams)
        return sim.rf.read_vector(self.builder.alloc.get("cg_sv"))
