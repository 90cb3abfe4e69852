"""Independent brute-force oracles used by the test suite.

Everything here works directly in the full 2^N-dimensional qubit space
and deliberately avoids the block machinery of the package, so that
agreement between the two routes is a meaningful check.  Conventions
shared with the package: qubit 0 is the most significant bit, |0> is the
+1 eigenstate of sigma_z, and measurement outcome k counts the number of
qubits found in the +1 eigenstate of the measured axis.

The last section is the exception: routes of the package that it has
replaced by faster ones, kept on the package's own primitives as
references for their replacements.
"""

from __future__ import annotations

import math
from itertools import combinations, permutations

import numpy as np

from scipy.linalg import cho_factor, cho_solve

from pitomo.design import (
    RankDeficientSettings,
    _axis_powers,
    _expansion_rows,
    _squared_coefficients,
    _weight_monomials,
    _weight_tables,
)
from pitomo.povm import moment_coefficients, probabilities, rotated_blocks, stacked_blocks
from pitomo.reconstruct import NonConvergenceError, _diagonal_table, _tensor_lines

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)

# A least-squares residual above this marks a monomial as outside the
# span of the settings' expansion rows (``bloch_coefficients``).
RANK_RESIDUAL_TOL = 1e-8


def kron_chain(mats):
    out = np.array([[1.0 + 0j]])
    for m in mats:
        out = np.kron(out, m)
    return out


def axis_sigma(axis):
    ax = np.asarray(axis, dtype=float)
    return ax[0] * SIGMA_X + ax[1] * SIGMA_Y + ax[2] * SIGMA_Z


def full_povm(n, axis):
    """Coarse-grained POVM elements M_0..M_N for measuring every qubit
    along ``axis``; outcome k counts +1 results.  Built as the sum over
    bitstrings of projector tensor products (permutation sum)."""
    sig = axis_sigma(axis)
    p_up = (ID2 + sig) / 2.0
    p_dn = (ID2 - sig) / 2.0
    elements = [np.zeros((1 << n, 1 << n), dtype=complex) for _ in range(n + 1)]
    for bits in range(1 << n):
        factors = []
        ups = 0
        for q in range(n):
            if (bits >> (n - 1 - q)) & 1:
                factors.append(p_dn)
            else:
                factors.append(p_up)
                ups += 1
        elements[ups] += kron_chain(factors)
    return elements


def permutation_matrix(n, perm):
    """Unitary permuting qubit q to position perm[q]."""
    dim = 1 << n
    mat = np.zeros((dim, dim))
    for src in range(dim):
        dst = 0
        for q in range(n):
            bit = (src >> (n - 1 - q)) & 1
            dst |= bit << (n - 1 - perm[q])
        mat[dst, src] = 1.0
    return mat


def transposition_conjugate(rho, n, q1, q2):
    """V rho V^dagger for the transposition of qubits q1, q2."""
    perm = list(range(n))
    perm[q1], perm[q2] = perm[q2], perm[q1]
    V = permutation_matrix(n, perm)
    return V @ rho @ V.T


def symmetric_projector(n):
    """Projector onto the totally symmetric subspace, (1/N!) sum_p V(p)."""
    dim = 1 << n
    acc = np.zeros((dim, dim))
    count = 0
    for perm in permutations(range(n)):
        acc += permutation_matrix(n, perm)
        count += 1
    return acc / count


def sym_pauli_product(n, kx, ly, mz):
    """Symmetrized tensor product [sigma_x^kx sigma_y^ly sigma_z^mz 1^rest]_PI:
    the average of the product over all distinct qubit assignments."""
    rest = n - kx - ly - mz
    if rest < 0:
        raise ValueError("weights exceed qubit count")
    letters = ("x",) * kx + ("y",) * ly + ("z",) * mz + ("1",) * rest
    table = {"x": SIGMA_X, "y": SIGMA_Y, "z": SIGMA_Z, "1": ID2}
    seen = set()
    acc = np.zeros((1 << n, 1 << n), dtype=complex)
    for arrangement in set(permutations(letters)):
        if arrangement in seen:
            continue
        seen.add(arrangement)
        acc += kron_chain([table[c] for c in arrangement])
    return acc / len(seen)


def sym_axis_power(n, axis, w):
    """[ (axis.sigma)^{(x)w} (x) 1^{(x)(n-w)} ]_PI as the average over
    the C(n,w) position subsets."""
    sig = axis_sigma(axis)
    acc = np.zeros((1 << n, 1 << n), dtype=complex)
    count = 0
    for subset in combinations(range(n), w):
        factors = [sig if q in subset else ID2 for q in range(n)]
        acc += kron_chain(factors)
        count += 1
    return acc / count


def expansion_matrix(axes, weight):
    """Row i: multinomial(w; k,l,m) a_x^k a_y^l a_z^m of axis i for every
    (k, l, m) with k + l + m = w, in the package's monomial order (k, then
    l ascending), element by element in exact-integer coefficients."""
    monos = [
        (k, l, weight - k - l)
        for k in range(weight + 1)
        for l in range(weight - k + 1)
    ]
    out = np.empty((len(axes), len(monos)))
    for i, (ax, ay, az) in enumerate(axes):
        out[i] = [
            math.factorial(weight) // (math.factorial(k) * math.factorial(l) * math.factorial(m))
            * ax**k * ay**l * az**m
            for (k, l, m) in monos
        ]
    return out


def series_expm(H, scale=1.0, terms=40):
    """exp(-i*scale*H) by Taylor series with scaling and squaring."""
    A = -1j * scale * np.asarray(H, dtype=complex)
    norm = np.linalg.norm(A, ord=np.inf)
    squarings = max(0, int(math.ceil(math.log2(max(norm, 1e-300)))) + 1) if norm > 0.5 else 0
    A = A / (2**squarings)
    out = np.eye(A.shape[0], dtype=complex)
    term = np.eye(A.shape[0], dtype=complex)
    for k in range(1, terms):
        term = term @ A / k
        out = out + term
    for _ in range(squarings):
        out = out @ out
    return out


def collective_spin_squared(n):
    """J^2 = (sum_q sigma_q / 2)^2 on the full space."""
    dim = 1 << n
    Js = []
    for sig in (SIGMA_X, SIGMA_Y, SIGMA_Z):
        acc = np.zeros((dim, dim), dtype=complex)
        for q in range(n):
            factors = [sig if qq == q else ID2 for qq in range(n)]
            acc += kron_chain(factors)
        Js.append(acc / 2.0)
    return sum(J @ J for J in Js)


def gell_mann_stack(n):
    """Orthonormal traceless Hermitian basis of an n x n block as dense
    matrices: for each pair r < c, (E_rc + E_cr)/sqrt2 and
    i(E_cr - E_rc)/sqrt2; then for l = 1..n-1 the diagonal matrix with
    1 on the first l entries and -l on entry l, over sqrt(l (l + 1))."""
    mats = []
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    for r in range(n):
        for c in range(r + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[r, c] = m[c, r] = inv_sqrt2
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[r, c] = -1j * inv_sqrt2
            m[c, r] = 1j * inv_sqrt2
            mats.append(m)
    for l in range(1, n):
        scale = 1.0 / math.sqrt(l * (l + 1))
        diag = np.zeros(n)
        diag[:l] = scale
        diag[l] = -l * scale
        mats.append(np.diag(diag).astype(complex))
    return np.array(mats).reshape(len(mats), n, n)


def sector_directions(n, shift_coeff):
    """Dense directions of one n x n sector in the package's coordinate
    order: ``gell_mann_stack(n)``, then the trace shifts c_s * I."""
    shifts = np.asarray(shift_coeff, dtype=float)[:, None, None] * np.eye(n)
    return np.concatenate([gell_mann_stack(n), shifts.astype(complex)])


def full_trace_distance(a, b):
    return 0.5 * float(np.sum(np.abs(np.linalg.eigvalsh(a - b))))


def fidelity(a, b):
    """Uhlmann fidelity tr sqrt(sqrt(a) b sqrt(a)) of two density matrices."""
    wa, va = np.linalg.eigh(a)
    wa = np.clip(wa, 0.0, None)
    sq = (va * np.sqrt(wa)) @ va.conj().T
    inner = sq @ b @ sq
    w = np.clip(np.linalg.eigvalsh(inner), 0.0, None)
    return float(np.sum(np.sqrt(w)))


def random_full_density(rng, n):
    dim = 1 << n
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def random_unit_vector(rng):
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def fd_gradient(fun, x, h=1e-6):
    """Central finite-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        g[i] = (fun(x + e) - fun(x - e)) / (2 * h)
    return g


def dense_hessian(hess):
    """A ``BlockHessian`` as the dense symmetric (dim, dim) matrix: its
    upper entries at their ``positions`` and their mirrors.  Every
    kind's structure holds the last diagonal entry, (dim-1, dim-1)."""
    d = math.isqrt(int(hess.positions[-1]) + 1)
    out = np.zeros(d * d)
    out[hess.positions] = hess.data
    upper = out.reshape(d, d)
    return upper + np.triu(upper, 1).T


def held_fit_hessian(system):
    """The fit Hessian a ``NewtonSystem`` holds, as a dense symmetric
    matrix: its buffer's strict lower triangle and its held diagonal."""
    lower = np.tril(system.W, -1)
    return lower + lower.T + np.diag(system.diagonal)


def fit_gradient_hessian(model, p):
    """(gradient, Hessian) of a fit at p, the Hessian formed in a fresh
    (d, d) buffer and mirrored from its lower triangle, so that it is
    exactly symmetric."""
    H = np.empty((model.G.shape[1],) * 2)
    g, _ = model.gradient_hessian(p, H)
    lower = np.tril(H, -1)
    return g, lower + lower.T + np.diag(H.diagonal())


def fit_curvature(model, p):
    """phi''(p) of a ``FitModel``'s loss on every row: the loss's own
    formula on the rows it reads, 0 on the others."""
    rows = model.loss.rows(model.frequencies)
    w = None if model.spec.weights is None else model.spec.weights[rows]
    c = np.zeros(model.frequencies.size)
    c[rows] = model.loss.d2(model.frequencies[rows], p[rows], w)
    return c


def weighted_gram(G, weights):
    """(G^T diag(weights) G, |G|^T diag(|weights|) |G|) by plain products:
    a fit Hessian with row r weighted by weights[r], and the scale that
    bounds the roundoff of any sum of its terms."""
    absolute = np.abs(G)
    return G.T @ (weights[:, None] * G), absolute.T @ (np.abs(weights)[:, None] * absolute)


# ---------------------------------------------------------------------------
# Replaced package routes


def gell_mann_coordinates(upper, diag, shift_coeff):
    """Re tr(D_q M) for R Hermitian n x n matrices M, in O(n^2) each.

    Each M is given by its entries: ``upper`` (pairs, R) holds M_ab for
    the pairs a < b of ``np.triu_indices(n, 1)``, ``diag`` (n, R) the
    diagonal.  D_q runs over one sector's directions in
    ``Parametrization`` order: the generalized Gell-Mann matrices (pairs
    S_ab, Y_ab, then the diagonal table), then the trace shifts
    ``shift_coeff[s] * I``.  The coordinates are sqrt2 Re M_ab and
    -sqrt2 Im M_ab for a < b, diag(M) against the diagonal table, and
    tr M for the shifts.
    """
    pairs, R = upper.shape
    n = diag.shape[0]
    out = np.empty((R, n * n - 1 + shift_coeff.size))
    out[:, 0 : 2 * pairs : 2] = math.sqrt(2.0) * upper.real.T
    out[:, 1 : 2 * pairs : 2] = -math.sqrt(2.0) * upper.imag.T
    out[:, 2 * pairs : n * n - 1] = diag.T @ _diagonal_table(n)
    out[:, n * n - 1 :] = np.outer(diag.sum(axis=0), shift_coeff)
    return out


def rotation_harmonics(settings, n):
    """The harmonics table Y (S, (N+1)^2) of ``Overlap``, N = n, read off
    the top sector's rotations as the package did before it computed Y
    from the axes: row a holds the real spherical tensor coordinates of
    R_a T_L0 R_a^dagger, which as T_L0 = sum_m T_L0[m, m] |m><m| is
    sum_r C[r, L] u_r^dagger T_LM u_r over the outcomes r of setting a."""
    lines = _tensor_lines(n)
    U = stacked_blocks(n, settings).rotations[n].reshape(n + 1, -1, n + 1)  # (i, a, r)
    C = lines[0][::-1]  # (r, L); outcome r measures basis index n - r
    Y = np.empty((U.shape[1], (n + 1) ** 2))
    for M, T in enumerate(lines):
        # A_L[i, i + M] = sum_r C[r, L] u_r[i] conj(u_r[i + M]) for L >= M
        product = U[: n + 1 - M] * U[M:].conj()
        A = (product.reshape(-1, n + 1) @ C[:, M:]).reshape(n + 1 - M, -1, n + 1 - M)
        v = np.einsum("ial,il->al", A, T)
        L = np.arange(M, n + 1)
        if M == 0:
            Y[:, L * L] = v.real
            Y[:, 0] = 1.0  # tr(T_00 T_00), which the roundoff of v.real misses
        else:
            Y[:, L * L + 2 * M - 1] = math.sqrt(2.0) * v.real
            Y[:, L * L + 2 * M] = -math.sqrt(2.0) * v.imag
    return Y


def dense_overlap(parametrization, settings):
    """The dense overlap table G[(a, k), i] = tr(B_i M_k^a), assembled as
    the package did before it held G as factors: each sector's columns
    are the Gell-Mann coordinates of the rank-one blocks u u^dagger, read
    off the sector's rotations, and sectors add up on the rows they
    share."""
    layout = parametrization.layout
    measurement = stacked_blocks(layout.n_qubits, settings)
    G = np.zeros((measurement.n_outcomes, parametrization.dimension))
    for b, two_j in enumerate(layout.two_j_values):
        U = measurement.rotations[two_j]
        upper, lower = np.triu_indices(two_j + 1, 1)
        G[np.ix_(measurement.outcome_slots(two_j), parametrization.indices[b])] += (
            gell_mann_coordinates(U[upper] * U[lower].conj(), U.real**2 + U.imag**2,
                                   parametrization.shift_coeff[b]))
    return G


def model_overlap(model):
    """``dense_overlap`` of a ``FitModel``: its parametrization and the
    settings of its overlap operator."""
    return dense_overlap(model.parametrization, model.G.settings)


def barrier_value_grad_hess(affine, x, t):
    """(value, gradient, Hessian) of -t sum_b log det(block_b(x)) by the
    package's own ``AffineBlockMap``, the Hessian dense: it feeds the
    finite-difference checks of the barrier.  Raises on a non-interior x."""
    chols = affine.cholesky_list(affine.blocks(np.asarray(x, dtype=float)))
    if chols is None:
        raise ValueError("non-interior point: a block is not positive definite")
    value, grad, hess = affine.barrier_grad_hess(chols)
    return t * value, t * grad, t * dense_hessian(hess)


def _dense_gell_mann_tables(tables, sizes, offsets, dim):
    """The Hessian tables of ``_GellMannTables`` with destinations in a
    dense (dim, dim) Hessian, both mirror positions of every entry."""
    m = max(sizes)
    K = tables.Q.shape[2]
    S = K - (m - 1)
    shift0 = dim - S
    pp_src, pp_dst, pd_src, pd_dst, dd_src, dd_dst = [], [], [], [], [], []
    for b, (n, offset) in enumerate(zip(sizes, offsets)):
        r, c = np.triu_indices(n, 1)
        P = r.size

        def entry(i, j, b=b):
            return (b * m + i) * m + j

        sym = offset + 2 * np.arange(P)
        kcols = np.concatenate([np.arange(n - 1), m - 1 + np.arange(S)])
        coords = np.concatenate([offset + 2 * P + np.arange(n - 1), shift0 + np.arange(S)])
        i, j = np.triu_indices(P)
        pp_src.append(np.stack([entry(c[i], r[j]), entry(c[j], r[i]),
                                entry(c[i], c[j]), entry(r[i], r[j])]))
        rows = sym[i] + np.array([[0], [0], [1], [1]])
        cols = sym[j] + np.array([[0], [1], [0], [1]])
        pp_dst.append(np.stack([rows * dim + cols, cols * dim + rows]))
        slot = r * m - r * (r + 1) // 2 + c - r - 1
        p, k = np.repeat(np.arange(P), kcols.size), np.tile(np.arange(kcols.size), P)
        pd_src.append((b * tables.slot_rows.size + slot[p]) * K + kcols[k])
        rows = sym[p] + np.array([[0], [1]])
        pd_dst.append(np.stack([rows * dim + coords[k], coords[k] * dim + rows]))
        k1, k2 = np.meshgrid(np.arange(kcols.size), np.arange(kcols.size), indexing="ij")
        keep = (k1 < n - 1) | (k2 < n - 1)
        dd_src.append((b * K + kcols[k1[keep]]) * K + kcols[k2[keep]])
        dd_dst.append(coords[k1[keep]] * dim + coords[k2[keep]])
    return [np.concatenate(part, axis=-1).astype(np.intp)
            for part in (pp_src, pp_dst, pd_src, pd_dst, dd_src, dd_dst)]


def reference_barrier_hessian(affine, chols, param=None):
    """The barrier Hessian of ``affine`` at ``chols`` by the dense writers
    it replaced: tr(A D_i A D_l) written into a zeroed (dim, dim) array
    (Gell-Mann blocks of ``param``'s map, with the closed forms of
    ``_GellMannTables``, or rank-one blocks, block by block), then each
    diagonal block's C C^T added."""
    dim = affine.dim
    A = chols.inverse
    hess = np.zeros((dim, dim))
    flat = hess.reshape(-1)
    kind = affine.directions
    if param is not None:
        sizes = [t + 1 for t in param.layout.two_j_values]
        offsets = np.concatenate([[0], np.cumsum([n * n - 1 for n in sizes])])[:-1]
        pp_src, pp_dst, pd_src, pd_dst, dd_src, dd_dst = _dense_gell_mann_tables(
            kind, sizes, offsets, dim)
        g = A.reshape(-1)[pp_src]
        t1 = g[0] * g[1]
        t2 = g[2] * g[3].conj()
        flat[pp_dst] = np.stack([t1.real + t2.real, t1.imag - t2.imag,
                                 t1.imag + t2.imag, t2.real - t1.real])
        Y = A[:, kind.slot_cols, :] * A[:, kind.slot_rows, :].conj()
        z = (Y @ kind.Qc).reshape(-1)[pd_src]
        flat[pd_dst] = math.sqrt(2.0) * np.stack([z.real, z.imag])
        W = np.swapaxes(kind.Q, 1, 2) @ (A.real**2 + A.imag**2) @ kind.Q
        W = 0.5 * (W + np.swapaxes(W, 1, 2))
        flat[dd_dst] = W.reshape(-1)[dd_src]
        shift0 = kind.shift0
        hess[shift0:, shift0:] = W[:, kind.diag_cols :, kind.diag_cols :].sum(axis=0)
    else:
        for b, C in enumerate(affine.constants):
            n, q = C.shape[0], int(np.sum(kind.indices[b] < dim))
            idx, w, V = kind.indices[b, :q], kind.weights[b, :q], kind.columns[b, :n, :q]
            M = V.conj().T @ (A[b, :n, :n] @ V)
            Wb = (M.real**2 + M.imag**2) * np.outer(w, w)
            flat[(idx[:, None] * dim + idx).ravel()] += (0.5 * (Wb + Wb.T)).ravel()
    for (_, D, idx), part in zip(affine.diagonal, affine._slack_ranges):
        C = D / chols.slacks[part]
        hess[np.ix_(idx, idx)] += C @ C.T
    return hess


def reference_newton_direction(H_fit, H_bar, t, g):
    """(delta, slope, factor) of (t H_bar + H_fit) delta = -g by the
    route the Newton buffer replaced: the system formed afresh, in full,
    for every ridge attempt, from dense H_fit and H_bar."""
    max_diag = float(np.max(t * H_bar.diagonal() + H_fit.diagonal())) if g.size else 0.0
    ridge = 0.0
    for _ in range(4):
        H = t * H_bar
        H += H_fit
        if ridge:
            H[np.diag_indices_from(H)] += ridge
        try:
            factor = cho_factor(H.T, lower=True, overwrite_a=True, check_finite=False)
        except np.linalg.LinAlgError:
            ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
            continue
        delta = cho_solve(factor, -g, check_finite=False)
        slope = float(g @ delta)
        if slope < 0.0 and np.all(np.isfinite(delta)):
            return delta, slope, factor
        ridge = 1e-12 * (1.0 + max_diag) if ridge == 0.0 else ridge * 10.0
    raise NonConvergenceError("Newton system unsolvable even with ridge repair")


def package_expansion_matrix(powers, weight):
    """The package's weight-w expansion matrix (settings, monomials), cut
    from its stacked ``_expansion_rows`` of the power table ``powers``."""
    starts = _weight_tables(powers.shape[1] - 1)[3]
    return _expansion_rows(powers)[starts[weight]:starts[weight + 1]].T


def bloch_coefficients(settings, bloch_index):
    """Per-setting coefficients c_i with
    sum_i c_i [(a_i.sigma)^(x)w (x) 1]_PI = [x^k y^l z^m 1^n]_PI,
    the minimum-norm solution of the expansion system.

    Only the requested monomial has to be reachable, so a deliberately
    small setting list (even a single aligned axis) is fine here even
    though it could not support every element of the same weight; that
    needs the SVD least-squares solve and a residual test, not the
    package's pivot test.
    """
    monos = _weight_monomials(bloch_index.weight)
    rhs = np.zeros(len(monos))
    rhs[monos.index((bloch_index.k, bloch_index.l, bloch_index.m))] = 1.0
    mat = package_expansion_matrix(
        _axis_powers(settings, bloch_index.weight), bloch_index.weight
    )
    coeff, *_ = np.linalg.lstsq(mat.T, rhs, rcond=None)
    residual = float(np.abs(mat.T @ coeff - rhs).max())
    if residual > RANK_RESIDUAL_TOL:
        raise RankDeficientSettings(bloch_index.weight, residual)
    return coeff


def moment_variance(state, setting, weight):
    """Outcome variance of the weight-w moment estimator on ``state``.

    The symmetrized power is diagonal in the measured collective basis
    with eigenvalue K(k, w, N) on outcome k, so its variance under the
    outcome distribution is sum_k K^2 p_k - (sum_k K p_k)^2.
    """
    n = state.layout.n_qubits
    p = probabilities(state, rotated_blocks(n, setting))
    kk = moment_coefficients(n, weight)
    mean = float(kk @ p)
    return float(kk**2 @ p - mean**2)


def element_error(problem, settings, bloch_index):
    """Squared estimation error of one Bloch element,
    K * sum_i c_i^2 * variance_i (independent per-setting errors), from
    its SVD coefficients and one rotation build per setting."""
    if bloch_index.n_qubits != problem.n_qubits:
        raise ValueError(
            f"index {bloch_index} is for N={bloch_index.n_qubits}, "
            f"problem has N={problem.n_qubits}"
        )
    c = bloch_coefficients(settings, bloch_index)
    variances = np.array(
        [moment_variance(problem.target, s, bloch_index.weight) for s in settings]
    )
    return float(problem.noise_constant * np.sum(c**2 * variances))


def rotation_total_error(problem, settings):
    """``pitomo.design.total_error`` by the rotation route: one batched
    rotation build gives the (S, N+1) outcome table P, and the moment
    means and variances of every weight are the columns of P @ K and
    P @ K^2 - (P @ K)^2, K being the moment table.  The squared
    coefficients come from the package's ``_squared_coefficients``, so
    agreement checks the moments; ``squared_coefficients_mp`` checks
    the coefficients."""
    n = problem.n_qubits
    settings = list(settings)
    rows = _expansion_rows(_axis_powers(settings, n))
    *_, multiplicity, starts = _weight_tables(n)
    weights = []
    try:
        for weight in range(n + 1):
            run = slice(starts[weight], starts[weight + 1])
            weights.append(_squared_coefficients(rows[run].T, multiplicity[run], weight))
    except RankDeficientSettings:
        return math.inf
    probs = probabilities(problem.target, stacked_blocks(n, settings)).reshape(
        len(settings), n + 1
    )
    kk = np.column_stack([moment_coefficients(n, w) for w in range(n + 1)])
    means = probs @ kk
    variances = probs @ kk**2 - means**2
    total = 0.0
    for weight, squared in enumerate(weights):
        total += float(variances[:, weight] @ squared)
    return problem.noise_constant * total


def squared_coefficients_mp(mat, multiplicity, digits=40):
    """sum_m multiplicity_m X_im^2 per row i of the double-precision
    (settings, monomials) ``mat``, X = E (E^T E)^-1 being the least-norm
    solution of E^T X = I, all in ``digits``-digit arithmetic (mpmath)
    from the same E."""
    import mpmath

    with mpmath.workdps(digits):
        e = mpmath.matrix(np.asarray(mat).tolist())
        x = e * mpmath.inverse(e.T * e)
        mult = [mpmath.mpf(float(m)) for m in multiplicity]
        return np.array([
            float(mpmath.fsum(m * x[i, j] ** 2 for j, m in enumerate(mult)))
            for i in range(x.rows)
        ])
