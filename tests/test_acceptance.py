"""End-to-end acceptance gate.

Each test exercises one advertised guarantee of the toolkit at its
stated tolerance and prints exactly one PASS/FAIL line, visible even
under captured output.  Tolerances and budgets are asserted, not
logged: a red line here means the shipped behavior regressed.
"""

import json
import time

import numpy as np

import srlab.expr as ex
from srlab.cli import main
from srlab.complement import (
    MetricExtension,
    canonical_complement,
    verify_flat_complement,
)
from srlab.discrete import (
    Grid,
    assemble_strong,
    assemble_weak_laplacian,
    check_periodicity,
    exact_green_defect,
    exact_symmetry_defect,
)
from srlab.geometry import (
    SubRiemannianStructure,
    cartan_residual,
    hausdorff_dimension,
    hormander_flag,
    is_fat,
    is_regular,
    linear_combination,
    structure_constants,
)
from srlab.operators import (
    connection_coefficients,
    horizontal_divergence,
    horizontal_gradient,
    penalty_laplacian,
    product_rule_residual,
    riemannian_divergence,
    sublaplacian,
)
from srlab.spectrum import (
    dense_spectrum,
    epsilon_sweep,
    kernel_check,
    lanczos_smallest,
)

from conftest import FIXTURE_NAMES, sample_points, structure


def report(capsys, ok, label, detail):
    status = "PASS" if ok else "FAIL"
    with capsys.disabled():
        print("%s %s (%s)" % (status, label, detail))
    assert ok, "%s (%s)" % (label, detail)


def canonical(name):
    s = structure(name)
    return canonical_complement(s).as_structure()


# ---------------------------------------------------------------------------


def test_criterion_1_structural_verdicts(capsys):
    budget_ok = True
    worst_time = 0.0

    def clocked(fn):
        nonlocal budget_ok, worst_time
        t0 = time.monotonic()
        out = fn()
        dt = time.monotonic() - t0
        worst_time = max(worst_time, dt)
        if dt >= 5.0:
            budget_ok = False
        return out

    heis = structure("heisenberg")
    base3 = np.zeros(3)
    flag = clocked(lambda: hormander_flag(heis, base3))
    pts = heis.sample_lattice(5)
    ok = (
        clocked(lambda: is_fat(heis, base3).fat)
        and clocked(lambda: is_regular(heis, pts).regular)
        and hausdorff_dimension(flag.dims) == 4
        and flag.degree == 2
    )

    engel = structure("engel")
    flag_e = clocked(lambda: hormander_flag(engel, np.zeros(4)))
    ok = (
        ok
        and not clocked(lambda: is_fat(engel, np.zeros(4)).fat)
        and hausdorff_dimension(flag_e.dims) == 7
        and flag_e.degree == 3
    )

    martinet = structure("martinet")
    ok = ok and not clocked(
        lambda: is_regular(martinet, martinet.sample_lattice(5)).regular
    )

    integrable = structure("integrable")
    degrees = clocked(
        lambda: [
            hormander_flag(integrable, p).degree
            for p in integrable.sample_lattice(3)
        ]
    )
    ok = ok and all(d is None for d in degrees)

    ok = ok and budget_ok
    report(
        capsys,
        ok,
        "criterion 1: structural verdicts",
        "heisenberg fat/regular Q=4 deg=2; engel thin Q=7 deg=3; "
        "martinet irregular; integrable non-generating; "
        "slowest step %.2fs < 5s" % worst_time,
    )


def test_criterion_2_canonical_complement(capsys):
    t0 = time.monotonic()
    worst_res = 0.0
    worst_tilt = 0.0
    for name in ("heisenberg", "carnot-step2", "contact3torus"):
        s = structure(name)
        # 125 sample points: the full 5-per-axis lattice in dimension 3,
        # a seeded 125-point sample in dimension 6
        if s.dim <= 3:
            pts = s.sample_lattice(5)
        else:
            pts = sample_points(s, count=125, seed=2)
        ac = canonical_complement(s)
        worst_res = max(worst_res, verify_flat_complement(s, ac, pts))

        # tilt the reference complement by horizontal fields and redo
        # the construction
        k = len(s.horizontal)
        coeffs = [ex.parse("1/4", dim=s.dim)] + [ex.ZERO] * (k - 1)
        tilted = SubRiemannianStructure(
            dim=s.dim,
            periods=s.periods,
            horizontal=s.horizontal,
            complement=tuple(
                linear_combination(coeffs, s.horizontal, base=T)
                for T in s.complement
            ),
        )
        ac2 = canonical_complement(tilted)
        if is_fat(s, np.zeros(s.dim)).fat:
            # fat structures determine the adapted fields uniquely, so
            # the construction must land on the same complement
            for p in pts[:40]:
                d = np.abs(ac.adapted_values(p) - ac2.adapted_values(p))
                worst_tilt = max(worst_tilt, float(np.max(d)))
        else:
            # without fatness only flatness is guaranteed; the tilted
            # reference must still produce a curvature-free complement
            worst_tilt = max(
                worst_tilt, verify_flat_complement(tilted, ac2, pts[:40])
            )
    elapsed = time.monotonic() - t0
    ok = worst_res < 1e-10 and worst_tilt < 1e-10 and elapsed < 10.0
    report(
        capsys,
        ok,
        "criterion 2: canonical complement",
        "max flatness residual %.3e < 1e-10; tilt invariance %.3e < 1e-10; "
        "%.1fs < 10s" % (worst_res, worst_tilt, elapsed),
    )


def test_criterion_3_operator_identities(capsys):
    t0 = time.monotonic()
    worst = {
        "compatibility": 0.0,
        "torsion": 0.0,
        "laplacian-vs-divgrad": 0.0,
        "product-rule": 0.0,
        "cartan": 0.0,
        "divergence-cross-check": 0.0,
    }
    for name in FIXTURE_NAMES:
        s = structure(name)
        adapted = canonical_complement(s).as_structure()
        ext = MetricExtension(adapted)
        m = s.dim
        k = len(s.horizontal)
        pts = sample_points(s, count=30, seed=17)

        gammas = []
        for p in pts:
            table = structure_constants(adapted, p).table
            gamma = connection_coefficients(table)
            gammas.append(gamma)
            worst["compatibility"] = max(
                worst["compatibility"],
                float(np.max(np.abs(gamma + np.transpose(gamma, (0, 2, 1))))),
            )
            worst["torsion"] = max(
                worst["torsion"],
                float(
                    np.max(
                        np.abs(gamma - np.transpose(gamma, (1, 0, 2)) - table)
                    )
                ),
            )

        op = sublaplacian(ext)
        f = _smooth_function(s)
        lhs = op.apply(f)
        _, grad_comps = horizontal_gradient(adapted, f)
        rhs = horizontal_divergence(adapted, grad_comps)
        for p in pts:
            worst["laplacian-vs-divgrad"] = max(
                worst["laplacian-vs-divgrad"],
                abs(float(ex.evaluate(lhs, p)) - float(ex.evaluate(rhs, p))),
            )

        worst["product-rule"] = max(
            worst["product-rule"],
            product_rule_residual(op, list(adapted.horizontal), f, pts),
        )

        omega = [ex.parse("sin(x1)", dim=m), ex.ZERO, ex.parse("x0", dim=m)][:m]
        while len(omega) < m:
            omega.append(ex.ZERO)
        X, Y = s.horizontal[0], s.horizontal[min(1, k - 1)]
        for p in pts:
            worst["cartan"] = max(worst["cartan"], cartan_residual(omega, X, Y, p))

        for v in range(m):
            div_expr = riemannian_divergence(ext, adapted.frame[v])
            for p, gamma in zip(pts[:10], gammas):
                worst["divergence-cross-check"] = max(
                    worst["divergence-cross-check"],
                    abs(
                        float(ex.evaluate(div_expr, p))
                        - float(gamma.trace(axis1=0, axis2=2)[v])
                    ),
                )
    elapsed = time.monotonic() - t0
    bad = {key: val for key, val in worst.items() if not val < 1e-9}
    ok = not bad and elapsed < 30.0
    report(
        capsys,
        ok,
        "criterion 3: operator identities",
        "7 fixtures x 30 points; worst defect %.3e < 1e-9; %.1fs < 30s"
        % (max(worst.values()), elapsed),
    )


def _smooth_function(s):
    terms = None
    for j, L in enumerate(s.periods):
        freq = 2.0 * np.pi / L
        term = ex.Sin(ex.Mul(ex.Const(freq) if freq != 1.0 else ex.ONE, ex.Var(j)))
        terms = term if terms is None else ex.Add(terms, term)
    return ex.simplify(terms)


def test_criterion_4_penalty_limit(capsys):
    worst_order = None
    worst_density = 0.0
    eps_values = np.array([10.0, 100.0, 1000.0])
    orders = []
    for name in ("heisenberg", "contact3torus"):
        adapted = canonical(name)
        ext = MetricExtension(adapted)
        m = adapted.dim
        k = len(adapted.horizontal)
        pts = sample_points(adapted, count=20, seed=23)
        op = sublaplacian(ext)
        a_h = {tuple(p): op.principal_symbol(p) for p in pts}
        b_h = {tuple(p): op.drift(p) for p in pts}
        dists = []
        for eps in eps_values:
            pl = penalty_laplacian(MetricExtension(adapted, epsilon=float(eps)))
            d = 0.0
            for p in pts:
                d = max(
                    d,
                    float(np.max(np.abs(pl.principal_symbol(p) - a_h[tuple(p)]))),
                    float(np.max(np.abs(pl.drift(p) - b_h[tuple(p)]))),
                )
            dists.append(d)
        slope = np.polyfit(np.log(eps_values), np.log(dists), 1)[0]
        orders.append(-slope)

        for eps in (2.0, 10.0):
            exte = MetricExtension(adapted, epsilon=eps)
            for p in pts:
                lhs = exte.volume_density(p)
                rhs = eps ** (m - k) * ext.volume_density(p)
                worst_density = max(worst_density, abs(lhs - rhs) / abs(rhs))
    worst_order = max(abs(o - 2.0) for o in orders)
    ok = worst_order < 0.3 and worst_density < 1e-12
    report(
        capsys,
        ok,
        "criterion 4: penalty limit",
        "fitted decay orders %s within 2.0+-0.3; density scaling defect "
        "%.3e < 1e-12" % ([round(float(o), 3) for o in orders], worst_density),
    )


def test_criterion_5_discrete_green_identity(capsys):
    adapted = canonical("contact3torus")
    g = Grid(shape=(6, 6, 6), periods=adapted.periods)
    wf = assemble_weak_laplacian(adapted, g)

    sym = exact_symmetry_defect(wf.operator)
    M = wf.operator.matrix
    sym_ok = sym == 0.0 and (M != M.T).nnz == 0

    # max |D_ij| = 0 proves f^T L e = sum <B e, B f>_W for every pair
    green = exact_green_defect(wf)
    green_ok = green == 0.0

    # strong and weak routes must agree with each other and refine at
    # second order against the analytic operator action (8 -> 16)
    op = sublaplacian(MetricExtension(adapted))
    f_expr = ex.parse("sin(x2)", dim=3)
    action = op.apply(f_expr)
    errors = {}
    agree_ok = True
    for n in (8, 16):
        gn = Grid(shape=(n, n, n), periods=adapted.periods)
        wfn = assemble_weak_laplacian(adapted, gn)
        S = assemble_strong(op, gn)
        fvals = check_periodicity(f_expr, gn)
        ref = check_periodicity(action, gn)
        weak = -wfn.mass.solve(wfn.operator.matvec(fvals))
        strong = S.matvec(fvals)
        if np.max(np.abs(strong - weak)) > 1e-9 * max(1.0, np.max(np.abs(ref))):
            agree_ok = False
        errors[n] = (
            float(np.max(np.abs(strong - ref))),
            float(np.max(np.abs(weak - ref))),
        )
    ratio_s = errors[8][0] / errors[16][0]
    ratio_w = errors[8][1] / errors[16][1]
    ratio_ok = 3.5 <= ratio_s <= 4.5 and 3.5 <= ratio_w <= 4.5

    ok = sym_ok and green_ok and agree_ok and ratio_ok
    report(
        capsys,
        ok,
        "criterion 5: discrete Green identity and symmetry",
        "max|L-L^T| = %r exactly; Green max|D_ij| = %r, every pair; "
        "strong/weak consistency ratios %.3f/%.3f in [3.5, 4.5]"
        % (sym, green, ratio_s, ratio_w),
    )


def test_criterion_6_spectral_convergence(capsys):
    t0 = time.monotonic()
    adapted = canonical("contact3torus")
    g = Grid(shape=(12, 12, 12), periods=adapted.periods)
    eps_values = [2.0, 4.0, 8.0, 16.0, 32.0]
    sweep = epsilon_sweep(adapted, g, eps_values, count=6, tol=1e-9, seed=42)
    lamH = sweep.horizontal.eigenvalues
    nonzero = np.abs(lamH) > 1e-8
    decreasing = True
    final_rel = 0.0
    for i in np.nonzero(nonzero)[0]:
        col = sweep.gaps[:, i]
        if not np.all(np.diff(col) < 0.0):
            decreasing = False
        final_rel = max(final_rel, float(col[-1] / abs(lamH[i])))

    wf = assemble_weak_laplacian(adapted, g)
    assert wf.operator.matrix.shape[0] <= 4096
    dense = dense_spectrum(wf.operator, wf.mass, count=6)
    lan = lanczos_smallest(wf.operator, wf.mass, 6, tol=1e-9, seed=42)
    agreement = float(
        np.max(
            np.abs(lan.eigenvalues - dense.eigenvalues)
            / np.maximum(1.0, np.abs(dense.eigenvalues))
        )
    )
    elapsed = time.monotonic() - t0
    ok = (
        decreasing
        and final_rel < 0.05
        and agreement < 1e-8
        and elapsed < 300.0
    )
    report(
        capsys,
        ok,
        "criterion 6: spectral convergence",
        "gaps strictly decreasing over eps %s; final relative gap %.3e < 5%%; "
        "Lanczos-vs-dense %.3e < 1e-8 at N=%d; %.0fs < 300s"
        % (eps_values, final_rel, agreement, g.size, elapsed),
    )


def test_criterion_7_harmonic_rigidity(capsys):
    adapted = canonical("contact3torus")
    g = Grid(shape=(8, 8, 8), periods=adapted.periods)
    wf = assemble_weak_laplacian(adapted, g)
    rep = kernel_check(wf, count=6)
    connected_ok = (
        rep.kernel_dim == 1 and rep.flat_defect < 1e-6 and rep.gap > 0.0
    )

    integrable = structure("integrable")
    gi = Grid(shape=(4, 4, 4), periods=integrable.periods)
    wfi = assemble_weak_laplacian(integrable, gi)
    rep_i = kernel_check(wfi, count=8)
    degenerate_ok = rep_i.kernel_dim > 1

    ok = connected_ok and degenerate_ok
    report(
        capsys,
        ok,
        "criterion 7: harmonic rigidity",
        "connected: kernel dim %d, flat defect %.3e < 1e-6, gap %.4f > 0; "
        "degenerate control: kernel dim %d > 1"
        % (rep.kernel_dim, rep.flat_defect, rep.gap, rep_i.kernel_dim),
    )


def test_criterion_8_determinism(capsys, tmp_path):
    matches = []
    for fmt in ("csv", "json"):
        paths = [tmp_path / ("run_%d.%s" % (i, fmt)) for i in (1, 2)]
        for path in paths:
            code = main(
                [
                    "spectrum",
                    "contact3torus",
                    "-n",
                    "6",
                    "--count",
                    "4",
                    "--eps",
                    "2,4",
                    "--seed",
                    "42",
                    "--format",
                    fmt,
                    "--out",
                    str(path),
                ]
            )
            assert code == 0
        matches.append(paths[0].read_bytes() == paths[1].read_bytes())
        if fmt == "json":
            json.loads(paths[0].read_text())
    ok = all(matches)
    report(
        capsys,
        ok,
        "criterion 8: determinism",
        "seeded CSV and JSON outputs byte-identical across runs: %s"
        % dict(zip(("csv", "json"), (bool(m) for m in matches))),
    )
