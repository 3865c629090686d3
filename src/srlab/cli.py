"""Command line interface.

Subcommands:

* ``check``         structural verdict (flag, degree, regularity, fatness)
* ``canonicalize``  emit the config with the canonical complement installed
* ``spectrum``      eigenvalues of the discretized operators, CSV or JSON
* ``verify``        run the identity suite, one PASS/FAIL line per item

All randomness is driven by ``--seed`` (default 42), so repeated runs
with the same arguments produce byte-identical output.  Configs are JSON
files; the named fixtures shipped with the package can be referenced by
bare name (e.g. ``srlab check heisenberg``).

Exit codes: 0 success / verified, 1 failed check or computation,
2 bad usage or config.
"""

import argparse
import json
import os
import sys
from importlib import resources

import numpy as np

from . import expr as ex
from .complement import (
    AdaptedComplement,
    ComplementError,
    MetricExtension,
    canonical_complement,
    verify_flat_complement,
)
from .discrete import (
    Grid,
    GridError,
    PeriodicityError,
    assemble_strong,
    assemble_weak_laplacian,
    exact_constant_image,
    exact_green_defect,
    exact_symmetry_defect,
)
from .expr import ExprError, ParseError
from .geometry import (
    StructureError,
    SubRiemannianStructure,
    VectorField,
    cartan_residual,
    hausdorff_dimension,
    hormander_flag,
    is_fat,
    is_regular,
    lie_bracket,
    linear_combination,
    structure_constants,
)
from .operators import (
    FrameError,
    connection_coefficients,
    horizontal_divergence,
    horizontal_gradient,
    mean_curvature_field,
    penalty_laplacian,
    potential_residual,
    product_rule_residual,
    riemannian_divergence,
    sublaplacian,
)
from .spectrum import (
    DENSE_LIMIT,
    LANCZOS_MAX_COUNT,
    SpectrumError,
    epsilon_sweep,
    kernel_check,
    solve_weak_form,
)


class ConfigError(ValueError):
    pass


USAGE_ERROR = 2
CHECK_FAILED = 1


def load_config(spec_arg):
    """Load a config dict from a path or a bundled fixture name."""
    text = None
    try:
        with open(spec_arg) as fh:
            text = fh.read()
    except OSError:
        candidate = resources.files("srlab").joinpath(
            "fixtures/%s.json" % spec_arg
        )
        try:
            text = candidate.read_text()
        except OSError:
            raise ConfigError(
                "config %r is neither a readable file nor a known fixture"
                % spec_arg
            )
    try:
        cfg = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError("config is not valid JSON: %s" % err)
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a JSON object")
    return cfg


def build_structure(cfg):
    for key in ("dim", "periods", "horizontal", "complement"):
        if key not in cfg:
            raise ConfigError("config is missing the %r key" % key)
    dim = cfg["dim"]
    if not isinstance(dim, int) or dim < 1:
        raise ConfigError("dim must be a positive integer")
    periods = cfg["periods"]
    if (
        not isinstance(periods, list)
        or len(periods) != dim
        or not all(isinstance(p, (int, float)) and p > 0 for p in periods)
    ):
        raise ConfigError("periods must list %d positive numbers" % dim)

    def parse_fields(rows, what):
        if not isinstance(rows, list):
            raise ConfigError("%s must be a list of coefficient rows" % what)
        out = []
        for r, row in enumerate(rows):
            if not isinstance(row, list) or len(row) != dim:
                raise ConfigError(
                    "%s row %d must list %d coefficient strings" % (what, r, dim)
                )
            coeffs = []
            for text in row:
                if not isinstance(text, str):
                    raise ConfigError(
                        "%s row %d holds a non-string coefficient" % (what, r)
                    )
                try:
                    coeffs.append(ex.parse(text, dim=dim))
                except ParseError as err:
                    raise ConfigError(
                        "%s row %d: cannot parse %r: %s" % (what, r, text, err)
                    )
            out.append(VectorField(coeffs))
        return tuple(out)

    horizontal = parse_fields(cfg["horizontal"], "horizontal")
    complement = parse_fields(cfg["complement"], "complement")
    try:
        s = SubRiemannianStructure(
            dim=dim,
            periods=tuple(float(p) for p in periods),
            horizontal=horizontal,
            complement=complement,
            name=str(cfg.get("name", "")),
        )
    except StructureError as err:
        raise ConfigError(str(err))
    density = None
    if cfg.get("density") is not None:
        if not isinstance(cfg["density"], str):
            raise ConfigError("density must be an expression string")
        try:
            density = ex.parse(cfg["density"], dim=dim)
        except ParseError as err:
            raise ConfigError("cannot parse density: %s" % err)
    return s, density


def default_lattice(s):
    return 5 if s.dim <= 4 else 3


def _emit(text, out_path):
    """Print text, or replace out_path with it atomically.

    The text goes to a temporary file in the target's directory, which is
    then renamed over the target, so a failed write leaves any existing
    file untouched.
    """
    if not out_path:
        sys.stdout.write(text)
        return
    tmp = "%s.%d.tmp" % (out_path, os.getpid())
    try:
        with open(tmp, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, out_path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _require(ok, message):
    """Reject a bad flag value as a usage error, before any work starts."""
    if not ok:
        raise ConfigError(message)


def _json_text(obj):
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------


def cmd_check(args):
    _require(
        args.lattice is None or args.lattice >= 1, "--lattice must be at least 1"
    )
    _require(args.samples >= 0, "--samples must not be negative")
    cfg = load_config(args.config)
    s, _density = build_structure(cfg)
    lattice = default_lattice(s) if args.lattice is None else args.lattice
    points = s.sample_lattice(lattice)
    s.validate(points)
    if args.samples:
        rng = np.random.default_rng(args.seed)
        points = np.vstack([points, s.sample_points(args.samples, rng=rng)])

    base = np.zeros(s.dim)
    flag = hormander_flag(s, base)
    reg = is_regular(s, points)
    generating = all(dims[-1] == s.dim for dims in reg.dims)
    fat = is_fat(s, base, rng=np.random.default_rng(args.seed))
    record = {
        "name": s.name or None,
        "point": [float(v) for v in base],
        "flag_dims": list(flag.dims),
        "degree": flag.degree,
        "Q": hausdorff_dimension(flag.dims) if flag.degree else None,
        "regular": bool(reg.regular),
        "fat": bool(fat.fat),
        "witness": None
        if fat.witness is None
        else [float(v) for v in fat.witness],
        "bracket_generating": bool(generating),
        "points_checked": int(len(points)),
    }
    _emit(_json_text(record), args.out)
    return 0 if generating else CHECK_FAILED


def cmd_canonicalize(args):
    cfg = load_config(args.config)
    s, _density = build_structure(cfg)
    ac = canonical_complement(s)
    if ac.mode != "exact-symbolic":
        sys.stderr.write(
            "error: the canonical tilt varies over the torus; no constant-"
            "coefficient complement exists for this config\n"
        )
        return CHECK_FAILED
    residual = verify_flat_complement(s, ac)
    out_cfg = dict(cfg)
    out_cfg["complement"] = [
        [ex.render(c) for c in f.coefficients] for f in ac.adapted_fields
    ]
    out_cfg["canonicalization"] = {
        "mode": ac.mode,
        "solvability": list(ac.solvability),
        "max_residual": float(residual),
        "condition_numbers": [
            None if not np.isfinite(c) else float(c)
            for c in ac.condition_numbers
        ],
        "warnings": list(ac.warnings),
    }
    _emit(_json_text(out_cfg), args.out)
    return 0


def _parse_eps_list(text):
    if not text:
        return None
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("--eps expects a comma-separated list of numbers")
    if not values or any(v <= 0 for v in values):
        raise ConfigError("--eps values must be positive")
    return values


def _spectrum_rows_csv(rows):
    lines = ["eps,i,lambda,residual,multiplicity_cluster"]
    for row in rows:
        eps = row["eps"]
        eps_text = "inf" if eps == "inf" else repr(float(eps))
        lines.append(
            "%s,%d,%s,%s,%d"
            % (
                eps_text,
                row["i"],
                repr(float(row["lambda"])),
                repr(float(row["residual"])),
                row["multiplicity_cluster"],
            )
        )
    return "\n".join(lines) + "\n"


def cmd_spectrum(args):
    _require(args.count >= 1, "--count must be at least 1")
    _require(
        args.solver != "lanczos" or args.count <= LANCZOS_MAX_COUNT,
        "--count must be at most %d with the lanczos solver" % LANCZOS_MAX_COUNT,
    )
    _require(args.tol > 0, "--tol must be positive")
    eps_values = _parse_eps_list(args.eps)
    cfg = load_config(args.config)
    s, density = build_structure(cfg)
    grid = Grid(shape=(args.n,) * s.dim, periods=s.periods)
    limit = grid.size if args.solver == "dense" else grid.size - 1
    _require(
        args.count <= limit,
        "--count must be at most %d on a grid of %d nodes with the %s solver"
        % (limit, grid.size, args.solver),
    )
    ac = canonical_complement(s)
    if ac.mode != "exact-symbolic":
        sys.stderr.write(
            "error: spectrum requires a constant canonical tilt\n"
        )
        return CHECK_FAILED
    adapted = ac.as_structure()
    meta = {
        "name": s.name or None,
        "grid": list(grid.shape),
        "count": args.count,
        "seed": args.seed,
        "solver": args.solver,
    }

    if eps_values is None:
        wf = assemble_weak_laplacian(adapted, grid, eps=None, density=density)
        rep = solve_weak_form(
            wf, args.count, args.solver, args.tol, args.seed
        )
        rows = rep.rows("inf")
        summary = None
    else:
        sweep = epsilon_sweep(
            adapted,
            grid,
            eps_values,
            count=args.count,
            tol=args.tol,
            seed=args.seed,
            solver=args.solver,
            density=density,
        )
        rows = sweep.rows()
        summary = {
            "monotone": bool(sweep.monotone),
            "orders": [
                None if not np.isfinite(o) else float(o) for o in sweep.orders
            ],
            "final_gaps": [float(g) for g in sweep.gaps[-1]],
        }

    if args.format == "csv":
        _emit(_spectrum_rows_csv(rows), args.out)
    else:
        payload = dict(meta)
        payload["rows"] = rows
        payload["sweep"] = summary
        _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _sample_points(s, count, seed):
    rng = np.random.default_rng(seed)
    return s.sample_points(count, rng=rng)


def _verify_items(s, density, grid, args):
    """Yield (name, status, detail) for every identity in the suite.

    ``grid`` is None when no grid items were asked for.
    """
    seed = args.seed
    pts = _sample_points(s, args.samples, seed)
    m, k = s.dim, s.k

    # 1. frame invertibility, scaled determinant
    F = s.frame_matrix(pts)
    dets = np.abs(np.linalg.det(F))
    norms = np.linalg.norm(F, axis=1)
    scaled = dets / np.prod(norms, axis=1)
    ok = float(np.min(scaled)) > 1e-10
    yield "frame-invertible", ok, "min scaled |det| = %.3e" % float(np.min(scaled))

    # 2. Jacobi identity for the bracket implementation
    fields = list(s.frame)
    worst = 0.0
    combos = [(0, 1, 2)] if m >= 3 else [(0, 1, 0)]
    for (ia, ib, ic) in combos:
        a, b, c = fields[ia % m], fields[ib % m], fields[ic % m]
        jac = [
            ex.simplify(
                ex.Add(
                    lie_bracket(lie_bracket(a, b), c).coefficients[j],
                    ex.Add(
                        lie_bracket(lie_bracket(b, c), a).coefficients[j],
                        lie_bracket(lie_bracket(c, a), b).coefficients[j],
                    ),
                )
            )
            for j in range(m)
        ]
        for e in jac:
            worst = max(worst, float(np.max(np.abs(ex.evaluate(e, pts[:10])))))
    yield "jacobi-identity", worst <= 1e-9, "max residual = %.3e" % worst

    # 3. flag dims monotone and bounded
    ok = all(
        all(b >= a for a, b in zip(f.dims, f.dims[1:])) and f.dims[-1] <= m
        for f in hormander_flag(s, pts[:10])
    )
    yield "flag-monotone", ok, "dims at base %s" % (
        list(hormander_flag(s, np.zeros(m)).dims),
    )

    # 4. canonical complement flatness
    ac = canonical_complement(s)
    res = verify_flat_complement(s, ac, pts)
    yield "canonical-complement-flat", res <= 1e-10, "max residual = %.3e" % res

    symbolic = ac.mode == "exact-symbolic"
    if not symbolic:
        yield "adapted-frame-symbolic", False, "pointwise tilt; later items skipped"
        return
    adapted = ac.as_structure()
    ext = MetricExtension(adapted)

    # 5-6. connection axioms, pointwise from the frame brackets
    table = structure_constants(adapted, pts[:10]).table
    gamma = connection_coefficients(table)
    compat = float(np.max(np.abs(gamma + gamma.swapaxes(-1, -2))))
    torsion = float(np.max(np.abs(gamma - gamma.swapaxes(-3, -2) - table)))
    yield "connection-compatible", compat <= 1e-10, "max defect = %.3e" % compat
    yield "connection-torsion", torsion <= 1e-10, "max defect = %.3e" % torsion

    # 7. sublaplacian equals div(grad); the constant-coefficient operator
    # only exists when the frame's divergence sums are constant
    f = _periodic_test_function(s)
    try:
        op = sublaplacian(ext)
    except FrameError as err:
        op = None
        op_reason = "constant-coefficient operator unavailable: %s" % err
    if op is None:
        yield "laplacian-divgrad", None, op_reason
        yield "product-rule", None, op_reason
    else:
        lhs = op.apply(f)
        grad_field, grad_comps = horizontal_gradient(adapted, f)
        rhs = horizontal_divergence(adapted, grad_comps)
        worst = float(
            np.max(np.abs(ex.evaluate(lhs, pts[:20]) - ex.evaluate(rhs, pts[:20])))
        )
        yield "laplacian-divgrad", worst <= 1e-9, "max defect = %.3e" % worst

        # 8. product rule
        pr = product_rule_residual(op, list(adapted.horizontal), f, pts[:20])
        yield "product-rule", pr <= 1e-9, "max defect = %.3e" % pr

    # 9. divergence via density vs connection sums: div E_v = sum_u Gamma_uvu
    worst = 0.0
    gamma_div = gamma.trace(axis1=-3, axis2=-1)
    for v in range(m):
        div_expr = riemannian_divergence(ext, adapted.frame[v])
        defect = np.abs(ex.evaluate(div_expr, pts[:10]) - gamma_div[:, v])
        worst = max(worst, float(np.max(defect)))
    yield "divergence-density-vs-frame", worst <= 1e-9, "max defect = %.3e" % worst

    # 10. Cartan formula for a sample 1-form
    omega = [ex.parse("sin(x1)", dim=m), ex.ZERO, ex.parse("x0", dim=m)][:m]
    while len(omega) < m:
        omega.append(ex.ZERO)
    X, Y = s.horizontal[0], s.horizontal[min(1, k - 1)]
    worst = float(np.max(cartan_residual(omega, X, Y, pts[:10])))
    yield "cartan-formula", worst <= 1e-9, "max residual = %.3e" % worst

    # 11. flat complement means constant potentials solve the gradient system
    curv = mean_curvature_field(adapted)
    pot = potential_residual(adapted, curv, ex.ONE, pts[:20])
    yield "potential-constant", pot <= 1e-10, "max residual = %.3e" % pot

    # 12. penalty coefficient decay toward the horizontal coefficients
    if op is None:
        yield "penalty-coefficient-decay", None, op_reason
    else:
        e1, e2 = 10.0, 100.0
        d1 = _coefficient_distance(ext, e1, op, pts[:20])
        d2 = _coefficient_distance(ext, e2, op, pts[:20])
        if d1 > 1e-14 and d2 > 1e-14:
            order = float(np.log(d1 / d2) / np.log(e2 / e1))
            ok = 1.7 <= order <= 2.3
            yield "penalty-coefficient-decay", ok, "fitted order = %.3f" % order
        else:
            yield "penalty-coefficient-decay", True, "coefficients already horizontal"

    # 13. density scaling of the rescaled frame
    worst = 0.0
    for eps in (2.0, 10.0):
        exte = MetricExtension(adapted, epsilon=eps)
        lhs = exte.volume_density(pts[:10])
        rhs = eps ** (m - k) * ext.volume_density(pts[:10])
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    yield "density-scaling", worst <= 1e-12, "max relative defect = %.3e" % worst

    # 14. tilt detection (negative control); needs vertical brackets
    data = structure_constants(s, pts[0])
    if k < m and float(np.max(np.abs(data.C_vertical))) > 1e-8:
        tilted = SubRiemannianStructure(
            dim=m,
            periods=s.periods,
            horizontal=s.horizontal,
            complement=tuple(
                linear_combination(
                    [ex.Const(0.3)] + [ex.ZERO] * (k - 1),
                    s.horizontal,
                    base=T,
                )
                for T in adapted.complement
            ),
            name="tilted",
        )
        raw = AdaptedComplement(
            structure=tilted,
            mode="exact-symbolic",
            solvability=["unique"] * (m - k),
            A_exprs=tuple(tuple(ex.ZERO for _ in range(k)) for _ in range(m - k)),
            adapted_fields=tilted.complement,
            condition_numbers=np.zeros(m - k),
            warnings=[],
        )
        res = verify_flat_complement(tilted, raw, pts[:10])
        yield "detects-tilted-complement", res > 1e-3, (
            "tilt residual = %.3e (must be visible)" % res
        )
    else:
        yield "detects-tilted-complement", None, (
            "no vertical brackets; every complement is flat"
        )

    # grid items; coefficients that cannot be sampled periodically are a
    # usage error, not a failed identity, so let it propagate to the
    # usage-error exit like the spectrum command
    if grid is not None:
        wf = assemble_weak_laplacian(adapted, grid, eps=None, density=density)
        sym = exact_symmetry_defect(wf.operator)
        yield "weak-exact-symmetry", sym == 0.0, "max |L - L^T| = %r" % sym
        const = exact_constant_image(wf.operator)
        yield "weak-exact-constants", const == 0.0, "max |L 1| = %r" % const
        rng = np.random.default_rng(seed)
        worst = 0.0
        for _ in range(2):
            e = rng.standard_normal(grid.size)
            g = rng.standard_normal(grid.size)
            worst = max(worst, exact_green_defect(wf, e, g))
        yield "weak-exact-green", worst == 0.0, "max defect = %r" % worst

        f_expr = _periodic_test_function(s)
        errs = []
        for n in (args.n, 2 * args.n):
            gridn = Grid(shape=(n,) * m, periods=s.periods)
            wfn = assemble_weak_laplacian(
                adapted, gridn, eps=None, density=density
            )
            ptsn = gridn.points()
            fv = np.asarray(ex.evaluate(f_expr, ptsn))
            target = -np.asarray(ex.evaluate(op.apply(f_expr), ptsn))
            approx = wfn.mass.solve(wfn.operator.matvec(fv))
            errs.append(float(np.max(np.abs(approx - target))))
        ratio = errs[0] / errs[1] if errs[1] else float("inf")
        yield "weak-two-grid-order", 3.0 <= ratio <= 5.0, (
            "error ratio %.3f (n=%d to n=%d)" % (ratio, args.n, 2 * args.n)
        )

        strong = assemble_strong(op, grid)
        fv = np.asarray(ex.evaluate(f_expr, grid.points()))
        target = np.asarray(ex.evaluate(op.apply(f_expr), grid.points()))
        err = float(np.max(np.abs(strong.matvec(fv) - target)))
        scale = float(np.max(np.abs(target))) + 1.0
        yield "strong-consistency", err <= 0.5 * scale, (
            "max defect = %.3e at n=%d" % (err, args.n)
        )

        kr = kernel_check(wf.operator, wf.mass)
        generating = hormander_flag(s, pts[0]).degree is not None
        if generating:
            ok = kr.kernel_dim == 1 and kr.flat_defect < 1e-6 and kr.gap > 0
            yield "kernel-dimension", ok, (
                "dim = %d, flat defect = %.2e, gap = %.4f"
                % (kr.kernel_dim, kr.flat_defect, kr.gap)
            )
        else:
            yield "kernel-dimension", kr.kernel_dim > 1, (
                "dim = %d (integrable control expects > 1)" % kr.kernel_dim
            )


def _periodic_test_function(s):
    """A smooth test function compatible with the declared periods."""
    terms = []
    for j, L in enumerate(s.periods):
        freq = 2.0 * np.pi / L
        if abs(freq - round(freq)) < 1e-12:
            freq_text = "%d" % round(freq)
        else:
            freq_text = repr(freq)
        if freq_text == "1":
            terms.append("sin(x%d)" % j)
        else:
            terms.append("sin(%s*x%d)" % (freq_text, j))
    return ex.parse(" + ".join(terms), dim=s.dim)


def _coefficient_distance(ext, eps, horizontal_op, pts):
    pl = penalty_laplacian(MetricExtension(ext.structure, epsilon=eps))
    a = pl.principal_symbol(pts) - horizontal_op.principal_symbol(pts)
    b = pl.drift(pts) - horizontal_op.drift(pts)
    return max(0.0, float(np.max(np.abs(a))), float(np.max(np.abs(b))))


def cmd_verify(args):
    _require(args.samples >= 1, "--samples must be at least 1")
    _require(args.n >= 0, "-n must not be negative")
    cfg = load_config(args.config)
    s, density = build_structure(cfg)
    # an unusable grid request (odd resolution, or more nodes than the
    # kernel check's dense solve takes) fails before any item runs
    grid = None
    if args.n:
        grid = Grid(shape=(args.n,) * s.dim, periods=s.periods)
        _require(
            grid.size <= DENSE_LIMIT,
            "-n %d gives %d grid nodes; the kernel check solves densely, "
            "up to %d" % (args.n, grid.size, DENSE_LIMIT),
        )
    failures = 0
    for name, ok, detail in _verify_items(s, density, grid, args):
        if ok is None:
            status = "SKIP"
        elif ok:
            status = "PASS"
        else:
            status = "FAIL"
            failures += 1
        sys.stdout.write("%s %s (%s)\n" % (status, name, detail))
    if failures:
        sys.stdout.write("%d item(s) failed\n" % failures)
        return CHECK_FAILED
    sys.stdout.write("all items passed\n")
    return 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="frames of vector fields on tori: structure checks, "
        "canonical complements, operators, and spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("config", help="config path or bundled fixture name")
        p.add_argument("--seed", type=int, default=42)
        p.add_argument("--out", default=None, help="write output to this file")

    p = sub.add_parser("check", help="structural verdict as JSON")
    common(p)
    p.add_argument(
        "--lattice",
        type=int,
        default=None,
        help="per-axis lattice resolution for the sweep",
    )
    p.add_argument(
        "--samples",
        type=int,
        default=0,
        help="extra random sample points",
    )
    p.set_defaults(func=cmd_check)

    p = sub.add_parser(
        "canonicalize", help="emit the config with the canonical complement"
    )
    common(p)
    p.set_defaults(func=cmd_canonicalize)

    p = sub.add_parser("spectrum", help="spectra of the discretized operators")
    common(p)
    p.add_argument("-n", type=int, required=True, help="grid nodes per axis")
    p.add_argument(
        "--eps",
        default=None,
        help="comma-separated penalty strengths; omitted = horizontal only",
    )
    p.add_argument("--count", type=int, default=6)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument(
        "--solver", choices=("lanczos", "dense"), default="lanczos"
    )
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    p.add_argument("-n", type=int, default=0, help="grid nodes per axis")
    p.add_argument("--samples", type=int, default=30)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        sys.stderr.write("error: %s\n" % err)
        return USAGE_ERROR
    except (StructureError, ExprError, GridError, PeriodicityError) as err:
        sys.stderr.write("error: %s\n" % err)
        return USAGE_ERROR
    except (ComplementError, FrameError, SpectrumError) as err:
        sys.stderr.write("error: %s\n" % err)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
