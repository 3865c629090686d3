"""Generalized eigensolvers for the discretized forms.

Every solver works on the symmetrically scaled standard problem
A~ = M^{-1/2} L M^{-1/2}.  A weak form whose assembler found its stencil
and mass diagonal exactly invariant under the one-node shift along some
grid axes is block-circulant along them: ``fourier_smallest`` splits
it into one small Hermitian block per wavevector of those axes
(block-circulant diagonalization, the discrete Bloch-Floquet reduction)
and solves all blocks in one batched ``numpy.linalg.eigvalsh``.
``solve_weak_form`` tries that path first; the sweeps and
``kernel_check`` both get their pairs from it.  Forms with no invariant
axis, or with blocks of more than FOURIER_BLOCK_LIMIT rows, go by
``choose_solver``, which refuses a form no path takes (``GridError``, a
usage error in the CLI): the dense path hands A~ to LAPACK
(``scipy.linalg.eigh`` with the ``evr`` driver, restricted to the wanted
index range, and the full ``evd`` solve where ``evr`` fails); the
iterative path hands the shift-invert operator
(A~ + SIGMA I)^{-1} to ARPACK's implicitly restarted Lanczos method
(``scipy.sparse.linalg.eigsh``) and reruns it on the complement of the
vectors found until no copy of a multiple eigenvalue is missing.  The
shifted matrix A~ + SIGMA I is symmetric positive definite, so its
sparse LU takes SuperLU's minimum-degree ordering on the structure of
A + A^T, which fits a symmetric pattern (COLAMD, the default, orders
for an unsymmetric one and leaves about twice the fill).
Each report's ``method`` names the path that produced it: "fourier",
"dense" or "lanczos"; the CLI's JSON ``"solver"`` lists the methods of
its solves.  Reported residuals are always the generalized
ones, || L v - lambda M v || / || M v ||, computed from the original
operator and mass.  The Fourier path takes the invariant axes from the
form (``WeakForm.invariance``), which only the assembler sets, from its
node tables; a form built by hand or by ``dataclasses.replace`` carries
none and goes by size.  The slab and every row's slab image are the
operator's (``SparseOperator.slab``, ``pos``).  It reads the nonzero
values of the operator's slab rows for its blocks and applies
``SparseOperator.matvec`` for its residuals, and uses numpy's LAPACK
only, so it builds neither the CSR matrix, the exact entry parts nor
the quadrature factors, and loads no scipy.  It builds at most 2^20
block entries at once (``_BLOCK_ENTRIES``).  The dense and Lanczos paths take
``SparseOperator.matrix``; scipy is imported by the functions that use
it, on the first such solve, not with the module.
"""

from dataclasses import dataclass, field

import numpy as np

from .discrete import DiagonalMass, GridError, SparseOperator, assemble_weak_laplacian


DENSE_LIMIT = 4096
# most rows per Fourier block; the crossover against ARPACK is
# unmeasured (ROADMAP item 2 re-measures it)
FOURIER_BLOCK_LIMIT = 2304
SIGMA = 0.1  # Lanczos shift: A~ + SIGMA I is positive definite
GAP_FLOOR = 1e-12  # sweep gaps at or below this count as converged


class SpectrumError(RuntimeError):
    pass


def _dense_cutoff(count):
    """Most nodes of a problem with ``count`` pairs the dense solve takes
    in preference to Lanczos."""
    return max(360, 12 * count)


def choose_solver(N, count):
    """The solver for ``count`` pairs of N nodes: "lanczos", "dense" or None.

    Lanczos takes a problem of more than max(360, 12 count) nodes; the
    dense solve, faster below about N = 512, takes the rest up to
    DENSE_LIMIT nodes.  None means no path takes the problem.
    """
    if N > _dense_cutoff(count):
        return "lanczos"
    return "dense" if N <= DENSE_LIMIT else None


def _mass_diagonal(M):
    if isinstance(M, DiagonalMass):
        diag = np.asarray(M.diagonal, dtype=float)
    else:
        import scipy.sparse as sp

        if sp.issparse(M):
            diag = M.diagonal()
            if (M - sp.diags(diag)).nnz:
                raise SpectrumError("mass matrix must be diagonal")
        else:
            diag = np.asarray(M, dtype=float)
            if diag.ndim == 2:
                diag = np.diag(diag)
    if not np.all(np.isfinite(diag) & (diag > 0)):
        raise SpectrumError("mass diagonal must be finite and positive")
    return diag


def _operator_matrix(L):
    import scipy.sparse as sp

    return L.matrix if hasattr(L, "matrix") else sp.csr_matrix(L)


def scaled_standard_form(L, M):
    """(A~, s) with A~ = diag(s) L diag(s), s = 1/sqrt(mass diagonal).

    The scale product s_i s_j is formed before touching the data so the
    scaled matrix is bitwise symmetric whenever L is.
    """
    import scipy.sparse as sp

    mat = _operator_matrix(L)
    diag = _mass_diagonal(M)
    s = 1.0 / np.sqrt(diag)
    coo = mat.tocoo()
    factor = s[coo.row] * s[coo.col]
    scaled = sp.csr_matrix(
        (coo.data * factor, (coo.row, coo.col)), shape=mat.shape
    )
    return scaled, s


def _apply(L, v):
    """L v for a vector or an (N, c) block: by ``SparseOperator.matvec``,
    else by the product."""
    return L.matvec(v) if isinstance(L, SparseOperator) else L @ v


def rayleigh(L, M, v):
    if not isinstance(L, SparseOperator):
        L = _operator_matrix(L)
    diag = _mass_diagonal(M)
    v = np.asarray(v, dtype=float)
    return float((v @ _apply(L, v)) / (v @ (diag * v)))


def cluster_eigenvalues(values):
    """Group indices whose eigenvalues agree to 1e-6 * max(1, |value|)."""
    values = np.asarray(values, dtype=float)
    clusters = []
    for i, lam in enumerate(values):
        if clusters and abs(lam - values[clusters[-1][-1]]) <= 1e-6 * max(
            1.0, abs(lam)
        ):
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


@dataclass
class SpectrumReport:
    eigenvalues: np.ndarray
    vectors: np.ndarray  # (N, count), generalized eigenvectors; None in a sweep
    residuals: np.ndarray
    method: str
    iterations: object = None
    clusters: list = field(init=False)

    def __post_init__(self):
        self.clusters = cluster_eigenvalues(self.eigenvalues)

    def cluster_index(self):
        """Per-eigenvalue cluster label, in ascending order."""
        labels = np.zeros(self.eigenvalues.size, dtype=int)
        for label, members in enumerate(self.clusters):
            for i in members:
                labels[i] = label
        return labels

    def rows(self, eps):
        """One output row per eigenvalue, tagged with the penalty ``eps``."""
        labels = self.cluster_index()
        return [
            {
                "eps": eps,
                "i": i,
                "lambda": float(lam),
                "residual": float(self.residuals[i]),
                "multiplicity_cluster": int(labels[i]),
            }
            for i, lam in enumerate(self.eigenvalues)
        ]


# ---------------------------------------------------------------------------
# dense path


def _symmetric_eig(A, lo, hi):
    """Eigenpairs lo..hi (0-based, inclusive, ascending) of symmetric A.

    LAPACK ``?syevr`` computes only the requested index range, with
    orthonormal vectors inside clusters of repeated eigenvalues.  Where
    it fails (seen on a cluster of zero eigenvalues), ``?syevd`` solves
    in full and the range is sliced out.
    """
    from scipy.linalg import eigh

    try:
        return eigh(A, subset_by_index=[lo, hi], driver="evr")
    except np.linalg.LinAlgError:
        w, Z = eigh(A, driver="evd")
        return w[lo : hi + 1], Z[:, lo : hi + 1]


def dense_spectrum(L, M, count=None):
    """Smallest generalized eigenpairs by a dense LAPACK solve.

    The wanted eigenpairs of the scaled matrix A~ come from one
    ``scipy.linalg.eigh`` call restricted to indices 0..count-1; the
    vectors are mapped back to generalized eigenvectors v = M^{-1/2} z.
    """
    mat = _operator_matrix(L)
    N = mat.shape[0]
    if N > DENSE_LIMIT:
        raise SpectrumError(
            "dense solve limited to N <= %d; got %d" % (DENSE_LIMIT, N)
        )
    if count is None:
        count = N
    count = int(count)
    if not 1 <= count <= N:
        raise SpectrumError("count must be between 1 and N")
    scaled, s = scaled_standard_form(L, M)
    A = scaled.toarray()
    A = 0.5 * (A + A.T)
    wanted, Z = _symmetric_eig(A, 0, count - 1)
    return _report(mat, _mass_diagonal(M), s, wanted, Z, "dense")


def _report(L, diag, s, lams, Z, method, iterations=None):
    """Report for pairs (lams, Z) of A~: unit vectors v = s z, scaled in
    place in Z, and the generalized residuals from the original operator
    or matrix ``L`` and mass ``diag``."""
    V = Z
    V *= s[:, None]
    V /= np.linalg.norm(V, axis=0, keepdims=True)
    # one product for the block; each column becomes its defect in place
    LV = _apply(L, V)
    res = np.empty(lams.size)
    for j in range(lams.size):
        Mv = diag * V[:, j]
        defect = LV[:, j]
        defect -= lams[j] * Mv
        res[j] = float(np.linalg.norm(defect) / np.linalg.norm(Mv))
    return SpectrumReport(lams, V, res, method, iterations)


# ---------------------------------------------------------------------------
# Lanczos path


def lanczos_smallest(L, M, count, tol=1e-10, seed=0):
    """Smallest generalized eigenpairs by shift-invert Lanczos (ARPACK).

    ``scipy.sparse.linalg.eigsh`` runs ARPACK's implicitly restarted
    Lanczos method on G = (A~ + SIGMA I)^{-1}, whose largest eigenvalues
    are the wanted smallest ones of A~, well separated.  Each run keeps
    max(2 count + 1, 20) Krylov vectors (the report's ``iterations``),
    starts from a vector drawn from ``seed`` and stops at ARPACK's
    relative tolerance tol / 100.  G is applied by one sparse LU of
    A~ + SIGMA I; that matrix is symmetric positive definite, so its
    column ordering is the minimum-degree ordering of A + A^T
    (``permc_spec="MMD_AT_PLUS_A"``), which keeps the symmetric pattern
    and about halves the fill of SuperLU's COLAMD default.

    One Krylov space sees a single vector of each eigenspace, so ARPACK
    can return fewer copies of a multiple eigenvalue than it has.  After
    the first run, each further run finds the largest eigenvalue of G on
    the complement of the vectors found; while it maps to an eigenvalue
    of A~ below the count-th smallest found, its vector joins the others
    and the pairs are recomputed by Rayleigh-Ritz on A~.  A last block
    inverse iteration step and Rayleigh-Ritz sharpen the vectors ARPACK
    returns for repeated Ritz values.  Every pair must then have a
    generalized residual of at most max(tol, 1e3 tol |lambda|).  A
    problem of at most max(360, 12 count) nodes, which ``choose_solver``
    leaves to the dense solve, is refused before the factorization.
    When ARPACK does not converge, or a pair fails the residual check,
    the error names the number of pairs that converged and the fill
    nnz(L) + nnz(U) of the shift-invert factor.
    """
    import scipy.sparse as sp
    from scipy.sparse.linalg import ArpackError, LinearOperator, eigsh, splu

    count = int(count)
    if count < 1:
        raise SpectrumError("count must be at least 1")
    mat = _operator_matrix(L)
    N = mat.shape[0]
    if N <= _dense_cutoff(count):
        raise SpectrumError(
            "Lanczos for %d pairs needs more than %d nodes; got %d"
            % (count, _dense_cutoff(count), N)
        )
    scaled, s = scaled_standard_form(L, M)
    lu = splu(
        (scaled + SIGMA * sp.identity(N, format="csr")).tocsc(),
        permc_spec="MMD_AT_PLUS_A",
    )
    ncv = max(2 * count + 1, 20)
    rng = np.random.default_rng(seed)
    found = np.empty((N, 0))  # orthonormal span of every Ritz vector kept

    def deflated_inverse(x):  # G on the complement of ``found``
        x = x - found @ (found.T @ x)
        y = lu.solve(x)
        return y - found @ (found.T @ y)

    G = LinearOperator((N, N), matvec=deflated_inverse, dtype=float)

    def largest(k):
        v0 = rng.standard_normal(N)
        return eigsh(G, k=k, which="LA", v0=v0, ncv=ncv, tol=0.01 * tol)

    def ritz(basis):  # Rayleigh-Ritz pairs of A~ on the span of ``basis``
        Q = np.linalg.qr(basis)[0]
        lams, S = np.linalg.eigh(Q.T @ (scaled @ Q))
        return Q, lams, S

    def limit(lams):
        return np.maximum(tol, 1e3 * tol * np.abs(lams))

    try:
        _, Y = largest(count)
        while True:
            found, lams, _ = ritz(np.hstack([found, Y]))
            # a Krylov space holds one vector per distinct eigenvalue, so
            # copies of a multiple one can be missed: look outside ``found``
            theta, Y = largest(1)
            if 1.0 / theta[0] - SIGMA >= lams[count - 1] - limit(lams[count - 1]):
                break
    except ArpackError as exc:  # ArpackNoConvergence carries the pairs that converged
        converged = min(count, found.shape[1] + len(getattr(exc, "eigenvalues", ())))
    else:
        # ARPACK's vectors for a repeated Ritz value can be loose; one block
        # inverse iteration step and Rayleigh-Ritz sharpen them
        Q, lams, S = ritz(np.hstack([found, lu.solve(found)]))
        V = Q @ S[:, :count]
        rep = _report(mat, _mass_diagonal(M), s, lams[:count], V, "lanczos", ncv)
        passed = rep.residuals <= limit(rep.eigenvalues)
        if np.all(passed):
            return rep
        converged = int(np.sum(passed))
    raise SpectrumError(
        "Lanczos did not converge to tolerance %.1e with %d Krylov vectors "
        "(%d of %d pairs converged, LU fill %d)"
        % (tol, ncv, converged, count, lu.L.nnz + lu.U.nnz)
    )


# ---------------------------------------------------------------------------
# Fourier path

_BLOCK_ENTRIES = 1 << 20  # most block entries the Fourier path builds at once


def _roots_of_unity(n):
    """exp(2 pi i j / n) for j < n (n even): root n - j is the exact
    conjugate of root j, and roots 0 and n/2 are exactly 1 and -1."""
    half = np.exp(2j * np.pi * np.arange(n // 2 + 1) / n)
    half[0], half[-1] = 1.0, -1.0
    return np.concatenate([half, np.conj(half[-2:0:-1])])


def fourier_smallest(wf, count):
    """Smallest generalized eigenpairs of a weak form, block by block in
    Fourier space; None when the form carries no invariant grid axis from
    its assembly (``WeakForm.invariance``) or its blocks would exceed
    FOURIER_BLOCK_LIMIT rows.

    Along the axes I under whose shift the assembler found the matrix and
    the mass exactly invariant, the modes u(x) = z(x_J) exp(i k.x_I) with
    x_J the other coordinates reduce L u = lambda M u to one Hermitian
    block per wavevector k,
    B_k[r_J, c_J] = sum of L[r, c] exp(2 pi i sum_a k_a c_a / n_a) over the
    stored entries of the slab rows r (index 0 on every axis of I),
    scaled by s = mass^(-1/2) on the slab.  Block -k is the conjugate
    of block k, so one block per pair +-k is solved, its eigenvalues
    counting twice; all of them go through one batched
    ``numpy.linalg.eigvalsh``, and ``numpy.linalg.eigh`` then solves the
    blocks that hold one of the ``count`` smallest.  The vectors are
    real and M-orthogonal: a self-conjugate k (every k_a in {0, n_a/2})
    has a real block and a real mode; any other k gives Re u and Im u,
    or Re u alone when ``count`` splits the pair.
    """
    op = wf.operator
    diag = _mass_diagonal(wf.mass)
    N = op.shape[0]
    count = int(count)
    if not 1 <= count <= N:
        raise SpectrumError("count must be between 1 and N")
    inv, slab, pos = wf.invariance, op.slab, op.pos
    if not inv or slab.size > FOURIER_BLOCK_LIMIT:
        return None
    S = slab.size
    n_inv = [wf.grid.shape[a] for a in inv]
    index = np.indices(wf.grid.shape, sparse=True)
    at = np.stack([np.broadcast_to(index[a], wf.grid.shape).ravel() for a in inv], 1)
    s = 1.0 / np.sqrt(diag)
    cols, values = op._slab_tables()
    stored = values != 0
    r, c = np.broadcast_to(slab[:, None], stored.shape)[stored], cols[stored]
    val = values[stored] * (s[r] * s[c])  # as in scaled_standard_form
    # entry (r, c) adds val * phase(k, at[c]) to block entry (pos[r], pos[c])
    cells, cell = np.unique(pos[r] * S + pos[c], return_inverse=True)
    offsets, key = np.unique(at[c], axis=0, return_inverse=True)
    table = np.zeros((cells.size, len(offsets)))
    table[cell, key.ravel()] = val
    roots = [_roots_of_unity(n) for n in n_inv]

    def phases(ks, x):
        """(len(ks), len(x)) table of exp(2 pi i sum_a k_a x_a / n_a)."""
        out = np.ones((len(ks), len(x)), dtype=complex)
        for a, root in enumerate(roots):
            out *= root[np.outer(ks[:, a], x[:, a]) % n_inv[a]]
        return out

    def blocks(ks):
        B = np.zeros((len(ks), S * S), dtype=complex)
        B[:, cells] = phases(ks, offsets) @ table.T
        return B.reshape(len(ks), S, S)  # eigvalsh and eigh read one triangle

    ks = np.indices(n_inv).reshape(len(inv), -1).T
    flat = np.ravel_multi_index(tuple(ks.T), n_inv)
    mirror = np.ravel_multi_index(tuple((-ks % n_inv).T), n_inv)
    ks, paired = ks[flat <= mirror], (flat < mirror)[flat <= mirror]
    step = max(1, _BLOCK_ENTRIES // (S * S))
    values = np.concatenate(
        [np.linalg.eigvalsh(blocks(ks[i : i + step])) for i in range(0, len(ks), step)]
    ).ravel()
    order = np.argsort(values, kind="stable")
    weight = np.where(paired, 2, 1).repeat(S)[order]
    chosen = order[: int(np.searchsorted(np.cumsum(weight), count)) + 1]

    solved, modes = {}, []  # (lambda, block, index, 0 for Re u or 1 for Im u)
    for b, j in zip(chosen // S, chosen % S):
        if b not in solved:
            B = blocks(ks[b : b + 1])[0]
            solved[b] = np.linalg.eigh(B if paired[b] else B.real)
        modes += [(solved[b][0][j], b, j, part) for part in range(1 + paired[b])]
    lams = np.array([mode[0] for mode in modes[:count]])
    order = np.argsort(lams, kind="stable")
    # each column built in place, in ascending order; Re u and Im u of one
    # pair are neighbours, so u is built once for both.  Column-major, so
    # that each vector is contiguous (the norms in _report sum it so)
    Z, last = np.empty((N, count), order="F"), None
    for col, i in enumerate(order):
        _, b, j, part = modes[i]
        if last != (b, j):
            u, last = solved[b][1][pos, j] * phases(ks[b : b + 1], at)[0], (b, j)
        Z[:, col] = u.imag if part else u.real
    del u, at  # before the report's (N, count) product
    return _report(op, diag, s, lams[order], Z, "fourier")


# ---------------------------------------------------------------------------
# sweeps and kernel checks


@dataclass
class SweepReport:
    eps_values: list
    horizontal: SpectrumReport
    penalized: list  # SpectrumReport per eps
    gaps: np.ndarray  # (n_eps, count)
    orders: np.ndarray  # per-index fitted decay order
    monotone: bool

    def rows(self):
        out = self.horizontal.rows("inf")
        for eps, rep in zip(self.eps_values, self.penalized):
            out.extend(rep.rows(float(eps)))
        return out


def solve_weak_form(wf, count, tol, seed):
    """Smallest ``count`` eigenpairs of a weak form.

    The Fourier path comes first; a form it does not take goes by
    ``choose_solver``, and a form that no path takes raises GridError.  A
    Fourier or dense result whose residuals exceed max(tol, 1e-8) raises
    SpectrumError; the Lanczos path checks its residuals against ``tol``
    itself.
    """
    rep = fourier_smallest(wf, count)
    if rep is None:
        N = wf.operator.shape[0]
        solver = choose_solver(N, count)
        if solver is None:
            raise GridError(
                "no solver takes %d pairs of %d grid nodes: the dense solve "
                "takes at most %d nodes, Lanczos fewer than N/12 pairs"
                % (count, N, DENSE_LIMIT)
            )
        if solver == "lanczos":
            return lanczos_smallest(wf.operator, wf.mass, count, tol=tol, seed=seed)
        rep = dense_spectrum(wf.operator, wf.mass, count=count)
    if np.any(rep.residuals > max(tol, 1e-8)):
        raise SpectrumError(
            "%s solve residuals exceed tolerance: %.3e"
            % (rep.method, float(np.max(rep.residuals)))
        )
    return rep


def epsilon_sweep(
    structure,
    grid,
    eps_values,
    count=6,
    tol=1e-9,
    seed=0,
    density=None,
):
    """Penalty spectra against the horizontal spectrum over a list of eps.

    Reports per-index gaps |lambda_i(eps) - lambda_i|, whether the gaps
    decrease monotonically (gaps up to GAP_FLOOR count as converged), and
    the per-index decay order fitted on log(gap) against log(eps).  Its
    spectrum reports hold no eigenvectors (``vectors`` is None).
    """
    eps_values = [float(e) for e in eps_values]
    if any(a >= b for a, b in zip(eps_values, eps_values[1:])):
        raise SpectrumError("eps values must be strictly increasing")
    # each form goes straight into its solve, so no solved form is held
    # while the next one is assembled, and no report keeps its vectors
    def solve(eps):
        wf = assemble_weak_laplacian(structure, grid, eps=eps, density=density)
        rep = solve_weak_form(wf, count, tol, seed)
        rep.vectors = None
        return rep

    base = solve(None)
    reports = []
    gaps = np.empty((len(eps_values), count))
    for row, eps in enumerate(eps_values):
        rep = solve(eps)
        reports.append(rep)
        gaps[row] = np.abs(rep.eigenvalues - base.eigenvalues)
    later = gaps[1:]
    monotone = not np.any((later >= gaps[:-1]) & (later > GAP_FLOOR))
    orders = np.full(count, np.nan)
    logeps = np.log(np.asarray(eps_values))
    for i in range(count):
        g = gaps[:, i]
        mask = g > GAP_FLOOR
        if int(np.sum(mask)) >= 2:
            slope = np.polyfit(logeps[mask], np.log(g[mask]), 1)[0]
            orders[i] = -slope
    return SweepReport(
        eps_values=eps_values,
        horizontal=base,
        penalized=reports,
        gaps=gaps,
        orders=orders,
        monotone=monotone,
    )


@dataclass
class KernelReport:
    eigenvalues: np.ndarray
    kernel_dim: int
    flat_defect: float
    gap: float


def kernel_check(wf, count=12):
    """Kernel dimension, flatness of the ground vector, and spectral gap
    of a weak form.

    The smallest min(count, N) pairs come from ``solve_weak_form`` with
    tol 1e-9 (the spectrum command's default) and seed 0, so the form
    takes the Fourier path, Lanczos or the dense solve by the same rule,
    and residuals above 1e-8 raise SpectrumError.  An eigenvalue below
    1e-8 * max(1, largest eigenvalue) counts toward the kernel.  On the
    Lanczos path the kernel's multiplicity is found by rerunning ARPACK
    outside the vectors found so far, which is measured, not guaranteed:
    the integrable control with a density varying along every axis takes
    that path at n = 8 and 10 and finds all 8 and 10 kernel vectors.
    """
    rep = solve_weak_form(wf, min(count, wf.operator.shape[0]), 1e-9, 0)
    lams = rep.eigenvalues
    kernel = int(np.sum(lams < 1e-8 * max(1.0, float(np.max(lams)))))
    v = rep.vectors[:, 0]
    mean = float(np.mean(v))
    if abs(mean) < 1e-300:
        flat = np.inf
    else:
        flat = float((np.max(v) - np.min(v)) / abs(mean))
    gap = float(lams[kernel]) if kernel < lams.size else np.nan
    return KernelReport(
        eigenvalues=lams, kernel_dim=kernel, flat_defect=abs(flat), gap=gap
    )
