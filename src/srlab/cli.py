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

# complement, discrete, operators and spectrum are imported by the
# commands that use them, so ``check`` never loads them


class ConfigError(ValueError):
    pass


USAGE_ERROR = 2
CHECK_FAILED = 1
# most points (lattice**dim + samples) one check takes.  Only the lattice
# points on the axes the frame reads are built, and the sweep holds one
# block at a time, so the limit bounds the run time and the arrays that
# grow with the points: the point set and its (n, 6) flag ranks
CHECK_POINT_LIMIT = 2**20


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
    if not isinstance(dim, int) or isinstance(dim, bool) or dim < 1:
        raise ConfigError("dim must be a positive integer")
    periods = cfg["periods"]
    if (
        not isinstance(periods, list)
        or len(periods) != dim
        or not all(
            isinstance(p, (int, float))
            and not isinstance(p, bool)
            and 0 < p <= sys.float_info.max
            for p in periods
        )
    ):
        raise ConfigError("periods must list %d finite positive numbers" % dim)

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
    file untouched and no temporary file behind; a write the system
    refuses is a usage error.
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
    except BaseException as err:
        if os.path.exists(tmp):
            os.remove(tmp)
        if isinstance(err, OSError):
            raise ConfigError("cannot write %s: %s" % (out_path, err.strerror or err))
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
    total = lattice**s.dim + args.samples
    _require(
        total <= CHECK_POINT_LIMIT,
        "--lattice %d and --samples %d give %d points in %d dimensions; "
        "check samples at most %d"
        % (lattice, args.samples, total, s.dim, CHECK_POINT_LIMIT),
    )
    points = s.sample_lattice(lattice)
    s.validate(points)
    if args.samples:
        points = np.vstack([points, s.sample_points(args.samples, seed=args.seed)])

    base = np.zeros(s.dim)
    flag = hormander_flag(s, base)
    reg = is_regular(s, points)
    generating = bool(np.all(reg.dims[:, -1] == s.dim))
    fat = is_fat(s, base, rng=args.seed)
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
        "points_checked": total,
    }
    _emit(_json_text(record), args.out)
    return 0 if generating else CHECK_FAILED


def cmd_canonicalize(args):
    from .complement import canonical_complement, verify_flat_complement

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
    if text is None:
        return []
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("--eps expects a comma-separated list of numbers")
    _require(
        values and all(np.isfinite(v) and v > 0 for v in values),
        "--eps values must be finite and positive",
    )
    _require(
        all(a < b for a, b in zip(values, values[1:])),
        "--eps values must be strictly increasing",
    )
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
    from .complement import canonical_complement
    from .discrete import Grid
    from .spectrum import epsilon_sweep

    _require(args.count >= 1, "--count must be at least 1")
    _require(
        np.isfinite(args.tol) and args.tol > 0, "--tol must be finite and positive"
    )
    eps_values = _parse_eps_list(args.eps)
    cfg = load_config(args.config)
    s, density = build_structure(cfg)
    grid = Grid(shape=(args.n,) * s.dim, periods=s.periods)
    _require(
        args.count <= grid.size,
        "--count must be at most %d (the number of grid nodes)" % grid.size,
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
    }

    # without --eps the sweep is empty: the horizontal solve alone
    sweep = epsilon_sweep(
        adapted,
        grid,
        eps_values,
        count=args.count,
        tol=args.tol,
        seed=args.seed,
        density=density,
    )
    reports = [sweep.horizontal] + sweep.penalized
    rows = sweep.rows()
    summary = None
    if eps_values:
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
        # the paths the solves took, in first-use order
        payload["solver"] = ",".join(dict.fromkeys(r.method for r in reports))
        payload["rows"] = rows
        payload["sweep"] = summary
        _emit(_json_text(payload), args.out)
    return 0


# ---------------------------------------------------------------------------
# verify


def _verify_items(s, density, grid, args):
    """Yield (name, status, detail) for every identity in the suite.

    ``grid`` is None when no grid items were asked for.
    """
    from .complement import (
        MetricExtension,
        _norms,
        canonical_complement,
        reference_mean_curvature,
        verify_flat_complement,
    )
    from .discrete import (
        Grid,
        assemble_strong,
        assemble_weak_laplacian,
        exact_constant_image,
        exact_green_defect,
        exact_symmetry_defect,
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
        weighted_laplacian,
    )
    from .spectrum import kernel_check

    pts = s.sample_points(args.samples, seed=args.seed)
    m, k = s.dim, s.k

    # 1. frame invertibility, scaled determinant
    F = s.frame_matrix(pts)
    scaled = np.abs(np.linalg.det(F)) / np.prod(np.linalg.norm(F, axis=1), axis=1)
    low = float(np.min(scaled))
    yield "frame-invertible", low > 1e-10, "min scaled |det| = %.3e" % low

    # 2. Jacobi identity for the bracket implementation
    a, b, c = (s.frame[i % m] for i in ((0, 1, 2) if m >= 3 else (0, 1, 0)))
    abc, bca, cab = (
        lie_bracket(lie_bracket(x, y), z).coefficients
        for x, y, z in ((a, b, c), (b, c, a), (c, a, b))
    )
    jac = [ex.simplify(ex.Add(u, ex.Add(v, w))) for u, v, w in zip(abc, bca, cab)]
    worst = _peak(ex.evaluate_array(jac, pts[:10]))
    yield "jacobi-identity", worst <= 1e-9, "max residual = %.3e" % worst

    # 3. flag dims monotone and bounded; flags[0] is at the base point
    flags = hormander_flag(s, np.vstack([np.zeros(m), pts[:10]]))
    ok = all(
        all(hi >= lo for lo, hi in zip(f.dims, f.dims[1:])) and f.dims[-1] <= m
        for f in flags[1:]
    )
    yield "flag-monotone", ok, "dims at base %s" % (list(flags[0].dims),)

    # 4. canonical complement flatness
    ac = canonical_complement(s)
    res = verify_flat_complement(s, ac, pts)
    yield "canonical-complement-flat", res <= 1e-10, "max residual = %.3e" % res

    if ac.mode != "exact-symbolic":
        yield "adapted-frame-symbolic", False, "pointwise tilt; later items skipped"
        return
    adapted = ac.as_structure()
    ext = MetricExtension(adapted)

    # 5-6. connection axioms, pointwise from the frame brackets
    table = structure_constants(adapted, pts[:10]).table
    gamma = connection_coefficients(table)
    compat = _peak(gamma + gamma.swapaxes(-1, -2))
    torsion = _peak(gamma - gamma.swapaxes(-3, -2) - table)
    yield "connection-compatible", compat <= 1e-10, "max defect = %.3e" % compat
    yield "connection-torsion", torsion <= 1e-10, "max defect = %.3e" % torsion

    # 7. sublaplacian equals div(grad); the constant-coefficient operator
    # only exists when the frame's divergence sums are constant, and every
    # item that needs it is skipped without it
    f = _periodic_test_function(s)
    try:
        op = sublaplacian(ext)
    except FrameError as err:
        op, skip = None, "constant-coefficient operator unavailable: %s" % err
    if op is None:
        yield "laplacian-divgrad", None, skip
        yield "product-rule", None, skip
    else:
        Lf = op.apply(f)
        rhs = horizontal_divergence(adapted, horizontal_gradient(adapted, f)[1])
        worst = _peak(ex.evaluate(Lf, pts[:20]) - ex.evaluate(rhs, pts[:20]))
        yield "laplacian-divgrad", worst <= 1e-9, "max defect = %.3e" % worst

        # 8. product rule
        pr = product_rule_residual(op, list(adapted.horizontal), f, pts[:20])
        yield "product-rule", pr <= 1e-9, "max defect = %.3e" % pr

    # 9. divergence via density vs connection sums: div E_v = sum_u Gamma_uvu
    divs = [riemannian_divergence(ext, E) for E in adapted.frame]
    worst = _peak(ex.evaluate_array(divs, pts[:10]) - gamma.trace(axis1=-3, axis2=-1))
    yield "divergence-density-vs-frame", worst <= 1e-9, "max defect = %.3e" % worst

    # 10. Cartan formula for a sample 1-form, in the coordinates that exist
    sine = ex.parse("sin(x%d)" % min(1, m - 1), dim=m)
    omega = ([sine, ex.ZERO, ex.parse("x0", dim=m)] + [ex.ZERO] * m)[:m]
    X, Y = s.horizontal[0], s.horizontal[min(1, k - 1)]
    worst = float(np.max(cartan_residual(omega, X, Y, pts[:10])))
    yield "cartan-formula", worst <= 1e-9, "max residual = %.3e" % worst

    # 11. flat complement means constant potentials solve the gradient system
    curv = mean_curvature_field(adapted)
    pot = potential_residual(adapted, curv, ex.ONE, pts[:20])
    yield "potential-constant", pot <= 1e-10, "max residual = %.3e" % pot

    # 12. penalty coefficient decay toward the horizontal coefficients,
    # fitted from eps = 10 to eps = 100
    if op is None:
        yield "penalty-coefficient-decay", None, skip
    else:
        symbol, drift = op.principal_symbol(pts[:20]), op.drift(pts[:20])
        gaps = []
        for eps in (10.0, 100.0):
            pl = penalty_laplacian(MetricExtension(adapted, epsilon=eps))
            dsymbol = pl.principal_symbol(pts[:20]) - symbol
            gaps.append(max(0.0, _peak(dsymbol), _peak(pl.drift(pts[:20]) - drift)))
        d1, d2 = gaps
        if d1 > 1e-14 and d2 > 1e-14:
            order = float(np.log(d1 / d2) / np.log(10.0))
            ok = 1.7 <= order <= 2.3
            yield "penalty-coefficient-decay", ok, "fitted order = %.3f" % order
        else:
            yield "penalty-coefficient-decay", True, "coefficients already horizontal"

    # 13. density scaling of the rescaled frame
    worst = 0.0
    rho = ext.volume_density(pts[:10])
    for eps in (2.0, 10.0):
        lhs = MetricExtension(adapted, epsilon=eps).volume_density(pts[:10])
        rhs = eps ** (m - k) * rho
        worst = max(worst, float(np.max(np.abs(lhs - rhs) / np.abs(rhs))))
    yield "density-scaling", worst <= 1e-12, "max relative defect = %.3e" % worst

    # 14. tilt detection (negative control); needs vertical brackets.  The
    # tilted complement's own curvature is its flatness residual at A = 0
    if k < m and _peak(structure_constants(s, pts[0]).C_vertical) > 1e-8:
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
        res = float(np.max(_norms(reference_mean_curvature(tilted, pts[:10]))))
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
    if grid is None:
        return
    wf = assemble_weak_laplacian(adapted, grid, eps=None, density=density)
    sym = exact_symmetry_defect(wf.operator)
    yield "weak-exact-symmetry", sym == 0.0, "max |L - L^T| = %r" % sym
    const = exact_constant_image(wf.operator)
    yield "weak-exact-constants", const == 0.0, "max |L 1| = %r" % const
    green = exact_green_defect(wf)
    yield "weak-exact-green", green == 0.0, "max defect = %r" % green

    if op is None:
        yield "weak-two-grid-order", None, skip
        yield "strong-consistency", None, skip
    else:
        if density is not None:
            # the weak form carries the config density, so it approximates
            # the sublaplacian of the density-weighted volume
            op = weighted_laplacian(op, adapted.horizontal, density)
            Lf = op.apply(f)
        grid2 = Grid(shape=(2 * args.n,) * m, periods=s.periods)
        wf2 = assemble_weak_laplacian(adapted, grid2, eps=None, density=density)
        fv, Lfv = (np.asarray(ex.evaluate(q, grid.points())) for q in (f, Lf))
        fv2, Lfv2 = (np.asarray(ex.evaluate(q, grid2.points())) for q in (f, Lf))
        # the weak form is positive semidefinite, so it approximates -Lf
        err_n, err_2n = (
            _peak(w.mass.solve(w.operator.matvec(u)) + Lu)
            for w, u, Lu in ((wf, fv, Lfv), (wf2, fv2, Lfv2))
        )
        ratio = err_n / err_2n if err_2n else float("inf")
        yield "weak-two-grid-order", 3.0 <= ratio <= 5.0, (
            "error ratio %.3f (n=%d to n=%d)" % (ratio, args.n, 2 * args.n)
        )

        err = _peak(assemble_strong(op, grid).matvec(fv) - Lfv)
        scale = _peak(Lfv) + 1.0
        yield "strong-consistency", err <= 0.5 * scale, (
            "max defect = %.3e at n=%d" % (err, args.n)
        )

    kr = kernel_check(wf)
    if flags[1].degree is not None:
        ok = kr.kernel_dim == 1 and kr.flat_defect < 1e-6 and kr.gap > 0
        yield "kernel-dimension", ok, (
            "dim = %d, flat defect = %.2e, gap = %.4f"
            % (kr.kernel_dim, kr.flat_defect, kr.gap)
        )
    else:
        yield "kernel-dimension", kr.kernel_dim > 1, (
            "dim = %d (integrable control expects > 1)" % kr.kernel_dim
        )


def _peak(values):
    """max |values| as a float."""
    return float(np.max(np.abs(values)))


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


def cmd_verify(args):
    _require(args.samples >= 1, "--samples must be at least 1")
    _require(
        args.samples <= CHECK_POINT_LIMIT,
        "--samples must be at most %d" % CHECK_POINT_LIMIT,
    )
    _require(args.n >= 0, "-n must not be negative")
    cfg = load_config(args.config)
    s, density = build_structure(cfg)
    # an invalid grid (odd resolution), or an n or 2n grid past the weak
    # assembly budget of the horizontal fields, fails before any item runs
    grid = None
    if args.n:
        from .discrete import Grid, _check_budget, _unread_axes, _weak_size

        grid = Grid(shape=(args.n,) * s.dim, periods=s.periods)
        read = s.dim - len(_unread_axes(s, density))
        for n in (args.n, 2 * args.n):
            _check_budget(_weak_size(s.dim, s.k, n**s.dim, n**read))
    # with --out the report is written whole once the suite has run, so an
    # error midway writes no file; without it each line streams to stdout
    lines = []
    write = lines.append if args.out else sys.stdout.write
    failures = 0
    for name, ok, detail in _verify_items(s, density, grid, args):
        if ok is None:
            status = "SKIP"
        elif ok:
            status = "PASS"
        else:
            status = "FAIL"
            failures += 1
        write("%s %s (%s)\n" % (status, name, detail))
    if failures:
        write("%d item(s) failed\n" % failures)
    else:
        write("all items passed\n")
    if args.out:
        _emit("".join(lines), args.out)
    return CHECK_FAILED if failures else 0


# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="srlab",
        description="frames of vector fields on tori: structure checks, "
        "canonical complements, operators, and spectra",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seed_help=None):
        p.add_argument("config", help="config path or bundled fixture name")
        p.add_argument("--seed", type=int, default=42, help=seed_help)
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
    common(p, seed_help="ignored: canonicalize draws no random numbers from it")
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
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("verify", help="run the identity suite")
    common(p)
    p.add_argument("-n", type=int, default=0, help="grid nodes per axis")
    p.add_argument("--samples", type=int, default=30)
    p.set_defaults(func=cmd_verify)

    return parser


def _usage_errors():
    from .discrete import GridError, PeriodicityError

    return ConfigError, StructureError, ExprError, GridError, PeriodicityError


def _failures():
    from .complement import ComplementError
    from .operators import FrameError
    from .spectrum import SpectrumError

    return ComplementError, FrameError, SpectrumError


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    # an except clause's classes are looked up only when an exception
    # reaches it, so a run that raises none imports none of their modules
    try:
        _require(args.seed >= 0, "--seed must not be negative")
        return args.func(args)
    except _usage_errors() as err:
        sys.stderr.write("error: %s\n" % err)
        return USAGE_ERROR
    except _failures() as err:
        sys.stderr.write("error: %s\n" % err)
        return CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
