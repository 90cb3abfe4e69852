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

from pitomo.design import (
    RankDeficientSettings,
    _axis_powers,
    _expansion_matrix,
    _min_norm_solve,
    _monomial_table,
    bloch_coefficients,
    moment_variance,
)
from pitomo.povm import moment_coefficients, probabilities, stacked_blocks

SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)
ID2 = np.eye(2, dtype=complex)


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


# ---------------------------------------------------------------------------
# Replaced package routes


def barrier_value_grad_hess(affine, x, t):
    """(value, gradient, Hessian) of -t sum_b log det(block_b(x)) by the
    package's own ``AffineBlockMap``: it feeds the finite-difference
    checks of the barrier.  Raises on a non-interior x."""
    chols = affine.cholesky_list(affine.blocks(np.asarray(x, dtype=float)))
    if chols is None:
        raise ValueError("non-interior point: a block is not positive definite")
    value, grad, hess = affine.barrier_grad_hess(chols)
    return t * value, t * grad, t * hess


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
    P @ K^2 - (P @ K)^2, K being the moment table."""
    n = problem.n_qubits
    settings = list(settings)
    powers = _axis_powers(settings, n)
    coeffs = []
    try:
        for weight in range(n + 1):
            mat = _expansion_matrix(powers, weight)
            coeffs.append(_min_norm_solve(mat, np.eye(mat.shape[1]), weight))
    except RankDeficientSettings:
        return math.inf
    probs = probabilities(problem.target, stacked_blocks(n, settings)).reshape(
        len(settings), n + 1
    )
    kk = np.column_stack([moment_coefficients(n, w) for w in range(n + 1)])
    means = probs @ kk
    variances = probs @ kk**2 - means**2
    total = 0.0
    for weight, coeff in enumerate(coeffs):
        mult = math.comb(n, weight) * _monomial_table(weight)[1]
        total += float(variances[:, weight] @ coeff**2 @ mult)
    return problem.noise_constant * total
