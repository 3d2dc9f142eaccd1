"""Quantitative checks: operator consistency rates, the interpolation
inequality for the nonlocal energy, the spectral floor of the linearized
operator, and convergence studies against curvature flow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .grid import Field, TorusGrid, l2_norm, sobolev_norm
from .kernel import MollifierSpec, local_table, symbol_table
from .ops import consistency_residual, nonlocal_energy
from .potential import PotentialSpec, f_eval
from .solver import SolverConfig, run
from .geometry import InterfaceSpec, approximate_solution, mcf_radius, volume_radius


class VerifyError(ValueError):
    pass


#: a fitted Ehrling constant above this counts as a violation
_EHRLING_CAP = 1e6
#: outer iterations and relative PCG tolerance of the spectral-floor eigensolver
_MAX_OUTER = 100
_INNER_TOL = 1e-8
#: the smallest spectral-floor tol: below it rounding, not the eigenvector,
#: decides when two Rayleigh quotients agree
_MIN_TOL = 1e-14


@dataclass(frozen=True)
class RateReport:
    pairs: tuple
    slope: float
    intercept: float
    r_squared: float
    extras: dict = dc_field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "table": [[p, e] for p, e in self.pairs],
            "slope": self.slope,
            "intercept": self.intercept,
            "r_squared": self.r_squared,
            **self.extras,
        }


def fit_rate(pairs) -> RateReport:
    """Least-squares slope of log(error) against log(parameter)."""
    pairs = [(float(p), float(e)) for p, e in pairs]
    distinct = len({p for p, _ in pairs})
    if distinct < 3:
        raise VerifyError(f"need at least 3 distinct parameters for a rate fit, got {distinct}")
    if any(p <= 0.0 or e <= 0.0 for p, e in pairs):
        raise VerifyError("rate fit requires positive parameters and errors")
    x = np.log([p for p, _ in pairs])
    y = np.log([e for _, e in pairs])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - float(np.sum(resid ** 2)) / ss_tot
    return RateReport(pairs=tuple(pairs), slope=float(slope),
                      intercept=float(intercept), r_squared=max(0.0, min(1.0, r2)))


def band_limited_field(grid: TorusGrid, cutoff: int, rng) -> Field:
    """Random real field with spectrum confined to |k| <= cutoff."""
    shape = grid.shape
    coeffs = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    mask = grid.k_squared() <= cutoff ** 2
    values = np.real(np.fft.ifftn(np.where(mask, coeffs, 0.0)))
    scale = np.max(np.abs(values))
    return Field(grid, values / scale if scale > 0 else values)


def lattice_mode_frequencies(grid: TorusGrid) -> list:
    """Frequencies j e_1 and j (1, ..., 1) for j = 1..N/2, in increasing |k|."""
    half = grid.points_per_axis // 2
    axis = [(j,) + (0,) * (grid.dim - 1) for j in range(1, half + 1)]
    diagonal = [(j,) * grid.dim for j in range(1, half + 1)]
    return sorted(set(axis + diagonal), key=lambda k: sum(c * c for c in k))


def lattice_modes(grid: TorusGrid):
    """Yield the single modes cos(k.x) over `lattice_mode_frequencies(grid)`.

    The diagonal reaches |k| = (N/2) sqrt(d), so the family holds the
    maximiser of the H^3 -> L2 norm of L_eta + Laplacian whenever the peak
    frequency z*/eta lies on the lattice (see `consistency_study`).
    """
    x = grid.coordinates()
    for k in lattice_mode_frequencies(grid):
        yield Field(grid, np.cos(sum(c * xi for c, xi in zip(k, x))))


def consistency_study(spec: MollifierSpec, grid: TorusGrid, etas,
                      fields) -> RateReport:
    """Rate of max_u ||(L_eta + Laplacian)u|| / ||u||_{H^3} as eta shrinks.

    The Abels-Hurm bound C eta ||u||_{H^3} is the operator norm, and a single
    mode attains it only near |k| = z*/eta, where z* (about 4.44 in 2D and
    4.89 in 3D) maximises (z^2 - m_1(z))/z^3.  So the rate observed depends
    on the family:

    - fields that include modes near z*/eta for every eta (`lattice_modes`
      with z*/eta inside the lattice) give rate one, with constant
      max_k = max_z (z^2 - m_1(z))/z^3 / (2pi)^{d/2};
    - fields on a fixed band |k| <= K with eta K small give rate two, from
      m_eta(k) = |k|^2 - c_d eta^2 |k|^4 + O(eta^4 |k|^6).

    `fields` is iterated once, so it may be a generator.  The extras record,
    per eta in increasing order, the index of the maximising field
    (`argmax`), and the number of fields (`num_fields`).
    """
    etas = sorted(float(e) for e in etas)
    if len(etas) < 4:
        raise VerifyError("need at least 4 eta values")
    tables = [symbol_table(spec, eta, grid) for eta in etas]
    worst = [0.0] * len(etas)
    argmax = [0] * len(etas)
    num_fields = 0
    for num_fields, u in enumerate(fields, 1):
        h3 = sobolev_norm(u, 3)
        for j, table in enumerate(tables):
            err = consistency_residual(u, table) / h3
            if err > worst[j]:
                worst[j], argmax[j] = err, num_fields - 1
    if num_fields == 0:
        raise VerifyError("need at least one field")
    if all(e == 0.0 for e in worst):
        raise VerifyError("degenerate field set: all residuals vanish")
    report = fit_rate(zip(etas, worst))
    ratios = [e / p for p, e in report.pairs]  # measured K per eta
    k_fine, k_next = ratios[0], ratios[1]
    extras = {
        "max_k": max(ratios),
        "k_stability": abs(k_fine - k_next) / max(k_fine, k_next),
        "argmax": argmax,
        "num_fields": num_fields,
    }
    return replace(report, extras=extras)


def consistency_passed(report: RateReport) -> bool:
    """Criterion 1: rate one with a stable constant, at an interior maximiser.

    Expects the report of `consistency_study` over a family ordered by |k|,
    as `lattice_modes` yields it: a maximiser at the family's last mode means
    the peak z*/eta lies beyond the lattice and the sup is clipped.
    """
    extras = report.extras
    return (0.9 <= report.slope <= 1.1 and extras["k_stability"] <= 0.10
            and max(extras["argmax"]) < extras["num_fields"] - 1)


@dataclass(frozen=True)
class EhrlingReport:
    fitted_c: float
    violations: int
    per_r: dict

    def to_dict(self) -> dict:
        return {"fitted_C": self.fitted_c, "violations": self.violations,
                "per_R": {str(r): c for r, c in self.per_r.items()}}


def minimal_ehrling_constant(u: Field, table, r_value: float) -> float:
    """Smallest C with ||u||^2 <= (C/R^2) E(u) + C R^2 ||u||^2_{H^{-1}}."""
    lhs = l2_norm(u) ** 2
    rhs = nonlocal_energy(u, table) / r_value ** 2 \
        + r_value ** 2 * sobolev_norm(u, -1) ** 2
    if rhs <= 0.0:
        return math.inf
    return lhs / rhs


def ehrling_check(spec: MollifierSpec, grid: TorusGrid, r_values, trials: int,
                  seed: int) -> EhrlingReport:
    """Fit the interpolation constant over random fields at eta = 1/R per R."""
    if len(r_values) == 0 or trials < 1:
        raise VerifyError(f"need R values and trials >= 1, got {len(r_values)} R values "
                          f"and {trials} trials")
    if min(r_values) < 1.0:  # before any symbol table is built
        raise VerifyError(f"R values must be >= 1, got {min(r_values)}")
    rng = np.random.default_rng(seed)
    per_r = {}
    violations = 0
    cutoff = grid.points_per_axis // 4
    for r_value in r_values:
        table = symbol_table(spec, 1.0 / r_value, grid)
        worst = 0.0
        for _ in range(trials):
            u = band_limited_field(grid, cutoff, rng)
            c = minimal_ehrling_constant(u, table, r_value)
            if not math.isfinite(c) or c > _EHRLING_CAP:
                violations += 1
            else:
                worst = max(worst, c)
        per_r[float(r_value)] = worst
    return EhrlingReport(fitted_c=max(per_r.values()), violations=violations,
                         per_r=per_r)


@dataclass(frozen=True)
class EigenEstimate:
    """The bottom eigenvalue with its certificates: `residual` is
    ||A v - value v|| / max(1, |value|) at the returned vector, `iterations`
    counts outer iterations and `inner_iterations` the PCG steps of all of them.
    """

    value: float
    converged: bool
    iterations: int
    residual: float
    inner_iterations: int


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """Inner product of real arrays as a ufunc sum: on 2 cores np.dot/np.vecdot spin
    OpenBLAS threads on 256^2 doubles, and CPU time came to twice wall time."""
    return float(np.sum(a * b))


def _pcg(grid: TorusGrid, m_hat, d, b, tol: float, max_iter: int):
    """Conjugate gradients for A = M + diag(d), preconditioned by the half-spectrum
    multiplier M = `m_hat`: M z = r and p = z + beta p give M p = r + beta M p,
    so A p needs no transform.  Returns (x, ok, iterations); ok turns False if
    a direction of nonpositive curvature appears, which signals that the
    shifted operator is not positive definite."""
    x = np.zeros_like(b)
    r = b.copy()
    # updated in place, not reallocated; beta p and beta M p vanish at first
    p, mp, ap = np.zeros_like(b), np.zeros_like(b), np.empty_like(b)
    rz = 1.0
    b_norm = math.sqrt(_dot(b, b))
    for it in range(1, max_iter + 1):
        spectrum = grid.rfftn(r)
        z = grid.irfftn(np.divide(spectrum, m_hat, out=spectrum))
        rz, rz_old = _dot(r, z), rz
        beta = rz / rz_old
        p = np.add(z, np.multiply(beta, p, out=p), out=p)
        mp = np.add(r, np.multiply(beta, mp, out=mp), out=mp)
        ap = np.add(mp, np.multiply(d, p, out=ap), out=ap)
        pap = _dot(p, ap)
        if pap <= 0.0:
            return x, False, it
        alpha = rz / pap
        x += alpha * p
        r -= alpha * ap
        if math.sqrt(_dot(r, r)) <= tol * b_norm:
            return x, True, it
    return x, True, max_iter


def require_resolved(epsilon: float, grid: TorusGrid) -> None:
    """Raise VerifyError unless epsilon >= 1.5 h, so the interface spans grid points."""
    if epsilon < 1.5 * grid.spacing:
        raise VerifyError(
            f"epsilon {epsilon} unresolved on grid with spacing {grid.spacing:.4g}")


def require_floor_tol(tol: float) -> None:
    """Raise VerifyError unless tol >= 1e-14, the smallest `spectral_floor` tol."""
    if not tol >= _MIN_TOL:
        raise VerifyError(f"tol must be at least {_MIN_TOL:g}, got {tol}")


def spectral_floor(u_a: Field, epsilon: float, potential: PotentialSpec,
                   tol: float = 1e-6) -> EigenEstimate:
    """Smallest eigenvalue of -Laplacian + eps^{-2} f''(u_a), matrix-free.

    Shift-and-invert power iteration from the interface mode
    sqrt(2 max(f(u_a), 0)) + 1e-3 of its maximum (ones if that vanishes
    everywhere; a constant u_a gives a constant start, its exact
    eigenvector).  Where u_a = theta_0(d/eps) this is theta_0'(d/eps), by
    theta_0' = sqrt(2 f(theta_0)): the shape of the principal eigenfunction
    (Chen, Comm. PDE 19, 1994), so the first Rayleigh quotient is already
    close to the bottom.  The start has the interface's symmetries about its
    centre, so the iteration stays in that symmetric sector, where a
    resolved interface's ground state lies.  The shift starts below the
    trivial bound min f''/eps^2 and tracks the Rayleigh quotient from
    below.  Inner solves use conjugate gradients preconditioned by
    M = |k|^2 + c, with one transform pair per iteration as `_pcg` carries
    M p by recurrence; the quotient and `residual` apply the operator
    explicitly.

    `tol` bounds the change of the Rayleigh quotient between outer
    iterations, relative to max(1, |lambda|), not the residual; the returned
    `residual` is the certificate.  A `tol` below 1e-14 is rejected: there
    the iteration stops only when two quotients are bit-equal.

    The start assumes a resolved interface (eps >= 1.5 h, `require_resolved`),
    whose bottom eigenvalue is simple.  Near eps/h = 0.5 an interface centred
    on a node splits the bottom into a symmetry-broken pair, and the
    symmetric start can converge to the wrong member of it.
    """
    require_floor_tol(tol)
    grid = u_a.grid
    ksq = local_table(grid).values
    diag = f_eval(potential, u_a.values, 2) / epsilon ** 2

    def apply_op(v):
        return grid.irfftn(ksq * grid.rfftn(v)) + diag * v

    v = np.sqrt(2.0 * np.maximum(f_eval(potential, u_a.values, 0), 0.0))
    top = float(np.max(v))
    v += 1e-3 * top if top > 0.0 else 1.0
    v /= math.sqrt(_dot(v, v))
    av = apply_op(v)
    lam = _dot(v, av)

    # the shift must stay below the bottom eigenvalue for (A - shift) to be
    # positive definite; it tracks the Rayleigh quotient from a shrinking margin
    margin = 1.0
    shift = min(float(np.min(diag)) - 1.0, lam - margin)
    iterations = inner = 0
    converged = False
    for outer in range(_MAX_OUTER):
        iterations = outer + 1
        c0 = max(1.0, float(np.mean(diag)) - shift)
        w, ok, steps = _pcg(grid, ksq + c0, diag - (shift + c0), v, _INNER_TOL,
                            max_iter=500)
        inner += steps
        w_norm = math.sqrt(_dot(w, w))
        ok = ok and w_norm > 0.0
        if ok:
            v_new = w / w_norm
            av_new = apply_op(v_new)
            lam_new = _dot(v_new, av_new)
            # inverse iteration with a valid shift cannot raise the quotient
            ok = lam_new <= lam + 1e-9 * max(1.0, abs(lam))
        if not ok:
            margin *= 2.0
            shift = lam - margin
            continue
        done = abs(lam_new - lam) < tol * max(1.0, abs(lam_new))
        v, av, lam = v_new, av_new, lam_new
        if done:
            converged = True
            break
        margin = max(1.0, 0.5 * margin)
        shift = lam - margin
    r = av - lam * v
    return EigenEstimate(value=lam, converged=converged, iterations=iterations,
                         residual=math.sqrt(_dot(r, r)) / max(1.0, abs(lam)),
                         inner_iterations=inner)


def floor_verdict(estimates: dict) -> tuple:
    """Criterion 6 on eps -> EigenEstimate: (floor, passed), where the floor is
    -1.2 |value at the largest eps| and every estimate must converge at or
    above it, so the bottom eigenvalue stays bounded as eps falls."""
    floor = -1.2 * abs(estimates[max(estimates)].value)
    return floor, all(e.converged and e.value >= floor for e in estimates.values())


def compare_nonlocal_local(base: SolverConfig, kernel_spec: MollifierSpec,
                           initial: Field, etas) -> RateReport:
    """Gap sup_t ||c_eta(t) - c_local(t)||_{L2} against eta; base must be local.

    The gap is driven by (L_eta + Laplacian) c, so its rate follows the
    frequencies the solution carries.  An interface of width epsilon lives
    at |k| ~ 1/epsilon; with eta |k| small (the paper's coupling
    eta <= epsilon^4 gives eta |k| <= epsilon^3) the symbol expansion
    m_eta(k) = |k|^2 - c_d eta^2 |k|^4 + ... makes the gap second order in
    eta, which implies the paper's bound gap <= C eta.  The first-order rate
    of the operator norm needs eta |k| near z* (see `consistency_study`),
    far outside that coupling.
    """
    if base.table.eta != 0.0:
        raise VerifyError("base config must use the local operator")
    etas = sorted(float(e) for e in etas)
    if len(etas) < 4:
        raise VerifyError("need at least 4 eta values")

    snapshots = []
    run(base, initial, observer=lambda t, fld: snapshots.append(fld.values))

    pairs = []
    for eta in etas:
        config = replace(base, table=symbol_table(kernel_spec, eta, base.grid))
        diffs = []

        def observer(t, fld, _d=diffs):
            ref = snapshots[len(_d)]
            _d.append(l2_norm(Field(base.grid, fld.values - ref)))

        run(config, initial, observer=observer)
        pairs.append((eta, max(diffs)))
    return fit_rate(pairs)


def gap_passed(report: RateReport) -> bool:
    """Criterion 7: the gap of `compare_nonlocal_local` is second order in eta.

    This is the rate the symbol expansion predicts for eta |k| small, and it
    implies the paper's first-order bound on the gap.
    """
    return 1.8 <= report.slope <= 2.2 and report.r_squared >= 0.99


@dataclass(frozen=True)
class McfReport:
    radius_errors: dict  # eps -> max_t |R_num - R_exact|
    radius_curves: dict  # eps -> list of (t, R_num, R_exact)
    field_errors: dict   # eps -> sup_t ||c - ansatz(R_exact)||_{L2}
    field_rate: RateReport | None

    def to_dict(self) -> dict:
        return {
            "radius_errors": {str(e): v for e, v in self.radius_errors.items()},
            "field_errors": {str(e): v for e, v in self.field_errors.items()},
            "field_rate": None if self.field_rate is None else self.field_rate.to_dict(),
        }


def mcf_convergence(spec: InterfaceSpec, epsilons, grid: TorusGrid,
                    potential: PotentialSpec, kernel_spec: MollifierSpec | None = None,
                    t_end: float = 0.2, dts=None,
                    diagnostic_stride: int = 250, eta_exponent: float = 4.0) -> McfReport:
    """Shrinking-circle runs across epsilon; radius (`volume_radius`) and
    field errors vs the exact curvature-flow solution.

    Without kernel_spec the runs use the local operator; with it they couple
    eta = eps^eta_exponent.  dts[i] is the step of epsilons[i] (default
    2 eps^4); runs go in increasing epsilon.
    """
    epsilons = [float(e) for e in epsilons]
    if not epsilons:
        raise VerifyError("need at least one epsilon")
    if len(set(epsilons)) != len(epsilons):
        raise VerifyError(f"epsilons must be distinct, got {epsilons}")
    if dts is None:
        dts = [2.0 * eps ** 4 for eps in epsilons]
    elif len(dts) != len(epsilons):
        raise VerifyError(f"got {len(dts)} dts for {len(epsilons)} epsilons")
    runs = sorted(zip(epsilons, dts))
    epsilons = [eps for eps, _ in runs]
    for eps in epsilons:
        require_resolved(eps, grid)
    dim = grid.dim
    collapse = spec.radius0 ** 2 / (2.0 * (dim - 1))
    if t_end > 0.6 * collapse:
        raise VerifyError(f"t_end {t_end} beyond 0.6 * collapse time {collapse}")

    radius_errors, radius_curves, field_errors = {}, {}, {}
    for eps, dt in runs:
        table = (None if kernel_spec is None
                 else symbol_table(kernel_spec, eps ** eta_exponent, grid))
        config = SolverConfig(grid=grid, epsilon=eps, dt=dt, t_end=t_end,
                              potential=potential, table=table,
                              diagnostic_stride=diagnostic_stride)
        initial = approximate_solution(grid, spec, spec.radius0, eps, potential)
        curve = []
        worst_radius = 0.0
        worst_field = 0.0

        def observer(t, fld, _eps=eps):
            nonlocal worst_radius, worst_field
            r_exact = mcf_radius(spec, t, dim) if t < collapse else 0.0
            r_num = volume_radius(fld, _eps, potential)
            curve.append((t, r_num, r_exact))
            worst_radius = max(worst_radius, abs(r_num - r_exact))
            ansatz = approximate_solution(grid, spec, r_exact, _eps, potential)
            worst_field = max(worst_field, l2_norm(Field(grid, fld.values - ansatz.values)))

        run(config, initial, observer=observer)
        radius_errors[eps] = worst_radius
        radius_curves[eps] = curve
        field_errors[eps] = worst_field

    field_rate = None
    if len(epsilons) >= 3:
        field_rate = fit_rate([(e, field_errors[e]) for e in epsilons])
    return McfReport(radius_errors=radius_errors, radius_curves=radius_curves,
                     field_errors=field_errors, field_rate=field_rate)


def mcf_passed(report: McfReport, radius_tol: float | None = None) -> bool:
    """Criterion 9 on an `mcf_convergence` report: field errors strictly
    decrease as eps falls, at rate at least one when there is a rate, and,
    with `radius_tol`, every radius error is at most `radius_tol`."""
    errs = [report.field_errors[e] for e in sorted(report.field_errors)]
    return (all(a < b for a, b in zip(errs, errs[1:]))
            and (report.field_rate is None or report.field_rate.slope >= 1.0)
            and (radius_tol is None
                 or all(v <= radius_tol for v in report.radius_errors.values())))
