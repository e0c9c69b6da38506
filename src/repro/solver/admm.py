"""The ADMM loop of Algorithm 1 (the OSQP algorithm).

Implements both solver variants of Section II:

* **OSQP-direct** — the KKT system (2) is solved with a sparse LDLᵀ
  factorization (:mod:`repro.solver.direct`);
* **OSQP-indirect** — the reduced positive definite system is solved
  with preconditioned conjugate gradient (:mod:`repro.solver.indirect`).

The loop includes modified-Ruiz scaling, per-constraint ρ, adaptive ρ
updates (triggering numeric refactorization in the direct variant),
α-relaxation, primal/dual residual termination and primal/dual
infeasibility certificates — the feature set of the reference OSQP
solver the paper benchmarks against.
"""

from __future__ import annotations

from collections.abc import Callable

import numpy as np

from .direct import DirectKKTSolver
from .indirect import IndirectKKTSolver
from .problem import OSQP_INFTY, QPProblem
from .results import OpTrace, Primitive, Settings, SolveResult, SolverStatus
from .scaling import Scaling, identity_scaling, ruiz_scale

__all__ = [
    "OSQPSolver",
    "admm_loop",
    "propose_rho",
    "residuals_from_products",
    "solve",
]

_RHO_LOOSE = 1e-6  # rho used on constraints with both bounds infinite


def _norm_inf(v: np.ndarray) -> float:
    return float(np.abs(v).max()) if v.size else 0.0


def residuals_from_products(
    scaling: Scaling,
    settings: Settings,
    *,
    ax: np.ndarray,
    px: np.ndarray,
    aty: np.ndarray,
    z: np.ndarray,
) -> tuple[float, float, float, float]:
    """Unscaled residuals/tolerances from precomputed matrix products.

    :func:`admm_loop`'s termination test, whichever executor produced
    ``A·x``, ``P·x`` and ``Aᵀ·y`` (host numpy or the simulator).
    Returns ``(prim_res, dual_res, eps_prim, eps_dual)``.
    """
    q = scaling.scaled.q
    e_inv, d_inv, c = scaling.e_inv, scaling.d_inv, scaling.c
    prim_res = _norm_inf(e_inv * (ax - z))
    dual_res = _norm_inf(d_inv * (px + q + aty)) / c
    eps_prim = settings.eps_abs + settings.eps_rel * max(
        _norm_inf(e_inv * ax), _norm_inf(e_inv * z)
    )
    eps_dual = settings.eps_abs + settings.eps_rel / c * max(
        _norm_inf(d_inv * px),
        _norm_inf(d_inv * aty),
        _norm_inf(d_inv * q),
    )
    return prim_res, dual_res, eps_prim, eps_dual


def propose_rho(
    rho: float, prim: float, dual: float, eps_prim: float, eps_dual: float,
    settings: Settings,
) -> tuple[float, bool]:
    """OSQP's residual-balancing ρ proposal.

    Returns ``(new_rho, trigger)``: ρ·√(normalised primal over
    normalised dual residual), clipped to the settings' range, and
    whether it left the ``adaptive_rho_tolerance`` band around the
    current ρ — only then is a refactorization worth its cycles.
    """
    ratio = (prim / max(eps_prim, 1e-12)) / max(dual / max(eps_dual, 1e-12), 1e-12)
    new_rho = float(
        np.clip(rho * np.sqrt(ratio), settings.rho_min, settings.rho_max)
    )
    tol = settings.adaptive_rho_tolerance
    return new_rho, new_rho > rho * tol or new_rho < rho / tol


def admm_loop(
    solver: "OSQPSolver",
    iterate: Callable[[int, bool], tuple | None],
    max_iter: int,
    *,
    refactor: Callable[[], None] | None = None,
    trace: OpTrace | None = None,
) -> tuple:
    """Algorithm 1's control: the one ADMM loop every executor runs.

    ``iterate(iteration, check)`` executes one iteration wherever the
    iterates live (host numpy, or the network's register file).  On a
    check iteration — every ``check_interval`` iterations, and a forced
    one at ``max_iter`` — it returns ``(z, A·x, P·x, Aᵀ·y, δx, δy)`` of
    the scaled iterates, otherwise ``None``.  At each check the loop
    decides in OSQP's order: convergence → primal infeasibility → dual
    infeasibility → ρ adaptation.  A new ρ is installed on ``solver``
    (:meth:`OSQPSolver.set_rho`, which refactors the host KKT backend);
    when the ρ vector changed, ``refactor`` then brings the executor's
    own factorization up to date.  Returns ``(status, iterations,
    prim_res, dual_res, rho_updates, prim_cert, dual_cert)``.
    """
    st, sc = solver.settings, solver.scaling
    status = SolverStatus.MAX_ITERATIONS
    prim = dual = float("inf")
    prim_cert = dual_cert = None
    rho_updates = iteration = 0
    for iteration in range(1, max_iter + 1):
        check = iteration % st.check_interval == 0 or iteration == max_iter
        products = iterate(iteration, check)
        if products is None:
            continue
        z, ax, px, aty, dx, dy = products
        prim, dual, eps_prim, eps_dual = residuals_from_products(
            sc, st, ax=ax, px=px, aty=aty, z=z
        )
        if prim <= eps_prim and dual <= eps_dual:
            status = SolverStatus.SOLVED
            break
        if solver._primal_infeasible(dy):
            status = SolverStatus.PRIMAL_INFEASIBLE
            prim_cert = sc.e * dy / sc.c
            break
        if solver._dual_infeasible(dx):
            status = SolverStatus.DUAL_INFEASIBLE
            dual_cert = sc.d * dx
            break
        if (
            st.adaptive_rho
            and iteration % st.adaptive_rho_interval == 0
            and iteration < max_iter
        ):
            new_rho, trigger = propose_rho(
                solver.rho, prim, dual, eps_prim, eps_dual, st
            )
            if trigger:
                rho_updates += 1
                if solver.set_rho(new_rho, trace) and refactor is not None:
                    refactor()
    return status, iteration, prim, dual, rho_updates, prim_cert, dual_cert


class OSQPSolver:
    """A reusable solver object bound to one problem structure.

    Parameters
    ----------
    problem:
        The QP to solve (original, unscaled).
    variant:
        ``"direct"`` or ``"indirect"`` (Section II-C / II-D).
    settings:
        Algorithm parameters; defaults mirror OSQP.
    scale:
        Apply modified Ruiz equilibration (OSQP default on).
    """

    def __init__(
        self,
        problem: QPProblem,
        *,
        variant: str = "direct",
        settings: Settings | None = None,
        scale: bool = True,
        ordering: str = "amd",
        lower_method: str = "column",
    ) -> None:
        if variant not in ("direct", "indirect"):
            raise ValueError(f"unknown variant {variant!r}")
        self.problem = problem
        self.variant = variant
        self.settings = settings or Settings()
        st = self.settings
        self.scaling: Scaling = (
            ruiz_scale(problem, iterations=st.scaling_iters)
            if scale
            else identity_scaling(problem)
        )
        sp = self.scaling.scaled
        self.rho = st.rho
        self.rho_vec = self._build_rho_vec(self.rho)
        if variant == "direct":
            self.kkt_solver: DirectKKTSolver | IndirectKKTSolver = DirectKKTSolver(
                sp, st.sigma, self.rho_vec, ordering=ordering, lower_method=lower_method
            )
        else:
            self.kkt_solver = IndirectKKTSolver(
                sp, st.sigma, self.rho_vec, max_iter=st.cg_max_iter
            )

    # ------------------------------------------------------------------
    def _build_rho_vec(self, rho: float) -> np.ndarray:
        """Per-constraint ρ: boosted on equalities, tiny on loose rows."""
        sp = self.scaling.scaled
        rho_vec = np.full(sp.m, rho, dtype=np.float64)
        rho_vec[sp.eq_constraint_mask()] = rho * self.settings.rho_eq_scale
        rho_vec[sp.loose_constraint_mask()] = _RHO_LOOSE
        return np.clip(rho_vec, self.settings.rho_min, self.settings.rho_max)

    # ------------------------------------------------------------------
    def update_values(self, problem: QPProblem) -> None:
        """Bind a new numeric instance of the *same* sparsity pattern.

        The parametric-problem workflow of Section V-B: scaling is
        reapplied with the existing equilibration matrices (as OSQP's
        ``update`` API does), the KKT backend refreshes its values
        (numeric refactorization only, for the direct variant), and all
        setup artifacts — ordering, symbolic factorization, compiled
        network schedules in the MIB backend — remain valid.
        """
        if not problem.a.pattern_equal(self.problem.a) or not (
            problem.p_upper.pattern_equal(self.problem.p_upper)
        ):
            raise ValueError("update_values requires an identical pattern")
        self.problem = problem
        scaled = self.scaling.apply(problem)
        self.scaling.scaled = scaled
        self.kkt_solver.update_values(scaled)

    # ------------------------------------------------------------------
    def update_vectors(self, problem: QPProblem) -> None:
        """Delta-bind: rebind only ``q``/``l``/``u`` of a same-pattern
        instance whose matrix values are unchanged.

        The streaming fast path (parametric MPC / homotopy sweeps):
        when ``P.data`` and ``A.data`` are bitwise those of the bound
        instance, the scaled matrices, the assembled KKT system and its
        numeric factorization are all bitwise what :meth:`update_values`
        would recompute — recomputation from identical inputs is
        deterministic — so only the vector rescale runs.  The caller
        (:meth:`repro.backends.mib.MIBSolver.bind_values`) owns the
        equality check; calling this with changed matrix values solves
        the wrong problem.
        """
        sc = self.scaling
        sp = sc.scaled
        q, l, u = sc.apply_vectors(problem)
        # Same ``sp.p`` object, so its derived forms carry over too.
        sc.scaled = QPProblem(
            p=sp.p, q=q, a=sp.a, l=l, u=u, name=problem.name
        ).adopt_p_forms(p_upper=sp.p_upper, p_full=sp.p_full)
        self.problem = problem

    # ------------------------------------------------------------------
    def set_rho(self, rho: float, trace: OpTrace | None = None) -> bool:
        """The one ρ install (ADMM loop, carried ρ, rebind reset): rebuild
        the per-constraint vector under the bound instance's masks and,
        only when it changed bitwise, hand it to the KKT backend
        (refactor or new preconditioner).  Returns whether it did."""
        self.rho = float(rho)
        rho_vec = self._build_rho_vec(self.rho)
        if np.array_equal(rho_vec, self.rho_vec):
            return False
        self.rho_vec = rho_vec
        self.kkt_solver.update_rho(rho_vec, trace)
        return True

    # ------------------------------------------------------------------
    def solve(
        self,
        *,
        x0: np.ndarray | None = None,
        y0: np.ndarray | None = None,
        trace: OpTrace | None = None,
    ) -> SolveResult:
        """Run ADMM to termination.

        The host executor of :func:`admm_loop`: the iterates live in
        numpy arrays and every operation is recorded in the
        :class:`OpTrace` (Fig. 3).  ``x0``/``y0`` warm-start the
        iteration (in original problem space).  A fresh
        :class:`OpTrace` is created when none is given.
        """
        st = self.settings
        sc = self.scaling
        sp = sc.scaled
        n, m = sp.n, sp.m
        trace = trace if trace is not None else OpTrace()

        # Scaled iterates.
        x = np.zeros(n) if x0 is None else np.asarray(x0) / sc.d
        y = np.zeros(m) if y0 is None else np.asarray(y0) * sc.c / sc.e
        z = sp.a.matvec(x) if x0 is not None else np.zeros(m)
        xt = x.copy()

        if self.variant == "direct":
            assert isinstance(self.kkt_solver, DirectKKTSolver)
            self.kkt_solver.initial_factor_trace(trace)

        def iterate(iteration: int, check: bool):
            nonlocal x, y, z, xt
            x_prev, y_prev, z_prev = x, y, z
            rho_vec = self.rho_vec

            # --- Step 1: solve the KKT system (Algorithm 1, line 3).
            if self.variant == "direct":
                rhs = np.concatenate([st.sigma * x - sp.q, z - y / rho_vec])
                trace.add("rhs_build", Primitive.ELEMENTWISE, 2.0 * n + 2.0 * m)
                sol = self.kkt_solver.solve(rhs, trace)
                xt = sol[:n]
                nu = sol[n:]
                zt = z + (nu - y) / rho_vec
                trace.add("ztilde_update", Primitive.ELEMENTWISE, 3.0 * m)
            else:
                assert isinstance(self.kkt_solver, IndirectKKTSolver)
                b = st.sigma * x - sp.q + sp.a.rmatvec(rho_vec * z - y)
                trace.add("spmv_At", Primitive.COLUMN_ELIM, 2.0 * sp.a.nnz)
                trace.add("rhs_build", Primitive.ELEMENTWISE, 2.0 * n + 2.0 * m)
                cg_tol = self._cg_tolerance(iteration)
                xt, _ = self.kkt_solver.solve_reduced(b, xt, tol=cg_tol, trace=trace)
                zt = sp.a.matvec(xt)
                trace.add("spmv_A", Primitive.MAC, 2.0 * sp.a.nnz)

            # --- Steps 2-4: relaxation, projection, dual update.
            x = st.alpha * xt + (1.0 - st.alpha) * x_prev
            w = st.alpha * zt + (1.0 - st.alpha) * z_prev
            z = np.clip(w + y_prev / rho_vec, sp.l, sp.u)
            y = y_prev + rho_vec * (w - z)
            trace.add("iterate_updates", Primitive.ELEMENTWISE, 4.0 * n + 10.0 * m)
            if not check:
                return None

            # --- The residual products of the termination check.
            trace.add("spmv_A", Primitive.MAC, 2.0 * sp.a.nnz)
            trace.add("spmv_P", Primitive.MAC, 2.0 * sp.p_full.nnz)
            trace.add("spmv_At", Primitive.COLUMN_ELIM, 2.0 * sp.a.nnz)
            trace.add("residual_vector_ops", Primitive.ELEMENTWISE, 6.0 * n + 6.0 * m)
            return (
                z,
                sp.a.matvec(x),
                sp.p_full.matvec(x),
                sp.a.rmatvec(y),
                x - x_prev,
                y - y_prev,
            )

        status, iterations, prim_res, dual_res, rho_updates, prim_cert, dual_cert = (
            admm_loop(self, iterate, st.max_iter, trace=trace)
        )
        x_orig = sc.unscale_x(x)
        y_orig = sc.unscale_y(y)
        z_orig = sc.unscale_z(z)
        polished = False
        if status is SolverStatus.SOLVED and st.polish:
            from .polish import polish as run_polish, unscaled_residuals

            attempt = run_polish(self.problem, sc, st, x_orig, y_orig, z_orig)
            if attempt is not None and attempt.success:
                old_prim, old_dual = unscaled_residuals(self.problem, x_orig, y_orig)
                if (
                    attempt.primal_residual <= old_prim + 1e-12
                    and attempt.dual_residual <= old_dual + 1e-12
                ):
                    x_orig, y_orig, z_orig = attempt.x, attempt.y, attempt.z
                    polished = True
        return SolveResult(
            status=status,
            x=x_orig,
            y=y_orig,
            z=z_orig,
            iterations=iterations,
            objective=self.problem.objective(x_orig),
            primal_residual=prim_res,
            dual_residual=dual_res,
            rho_updates=rho_updates,
            trace=trace,
            primal_infeasibility_certificate=prim_cert,
            dual_infeasibility_certificate=dual_cert,
            polished=polished,
        )

    # ------------------------------------------------------------------
    def _cg_tolerance(self, iteration: int) -> float:
        """Loose-to-tight PCG tolerance schedule (standard for inexact ADMM)."""
        return max(1e-10, min(1e-2, 10.0 ** (-2 - iteration / 50.0)))

    def _primal_infeasible(self, dy: np.ndarray) -> bool:
        """OSQP primal infeasibility certificate test on δy (scaled)."""
        sc, sp = self.scaling, self.scaling.scaled
        eps = self.settings.eps_prim_inf
        norm = _norm_inf(sc.e * dy)
        if norm <= eps:
            return False
        if _norm_inf(sc.d_inv * sp.a.rmatvec(dy)) > eps * norm:
            return False
        pos, neg = np.maximum(dy, 0.0), np.minimum(dy, 0.0)
        # Infinite bounds with active dy direction rule out a certificate.
        if np.any((sp.u >= OSQP_INFTY) & (pos > eps * norm)):
            return False
        if np.any((sp.l <= -OSQP_INFTY) & (neg < -eps * norm)):
            return False
        finite_u = np.where(sp.u < OSQP_INFTY, sp.u, 0.0)
        finite_l = np.where(sp.l > -OSQP_INFTY, sp.l, 0.0)
        support = float(finite_u @ pos + finite_l @ neg)
        return support <= -eps * norm

    def _dual_infeasible(self, dx: np.ndarray) -> bool:
        """OSQP dual infeasibility certificate test on δx (scaled)."""
        sc, sp = self.scaling, self.scaling.scaled
        eps = self.settings.eps_dual_inf
        norm = _norm_inf(sc.d * dx)
        if norm <= eps:
            return False
        if float(sp.q @ dx) > -eps * norm * sc.c:
            return False
        if _norm_inf(sc.d_inv * sp.p_full.matvec(dx)) > eps * norm * sc.c:
            return False
        a_dx = sc.e_inv * sp.a.matvec(dx)
        ok_upper = (sp.u >= OSQP_INFTY) | (a_dx <= eps * norm)
        ok_lower = (sp.l <= -OSQP_INFTY) | (a_dx >= -eps * norm)
        return bool(np.all(ok_upper & ok_lower))


def solve(
    problem: QPProblem,
    *,
    variant: str = "direct",
    settings: Settings | None = None,
    scale: bool = True,
    **solver_kwargs,
) -> SolveResult:
    """One-shot convenience wrapper around :class:`OSQPSolver`."""
    solver = OSQPSolver(
        problem, variant=variant, settings=settings, scale=scale, **solver_kwargs
    )
    return solver.solve()
