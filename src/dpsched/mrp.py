"""Markov reward process for the backlog chain t[n].

Builds the transition matrices of policies, solves their stationary
distributions, computes the average-power and average-delay rewards, and
implements the one-row mixing analysis (reward interpolation weight and
segment slope in the (power, delay) plane).

Transition matrices and stationary distributions are plain read-only
ndarrays.  Every policy is scored by one path, which takes a stack of N
chains at once (N=1 for a single policy): find each chain's closed prefix
from the supports of its policy rows (`_prefix_sizes`), build the band of
the transition matrix lam on the prefix columns alone, factor the
normalized balance systems H of the prefixes (`lu_factor`), solve them
with one refinement step (GTH on the closed class of a chain that the LU
cannot resolve), then take the rewards of the stationary
distributions (`_score`).  The band comes from policy rows (`_lam_band`,
for `score_stack`) or from the actions of deterministic policies
(`_map_band`, for `score_maps` and `score_map_runs`), bit for bit the band
of their one-hot rows, which are never built.

There is one band layout, the cut stack: lam's band (A+M+1, columns), one
block of `sizes[i]` columns per chain, row t varying fastest, so that it
views (columns, A+M+1) memory: the BLAS band storage of the
block-diagonal lam (Anderson et al., LAPACK Users' Guide, 1999).  Two
callers pass one block of all K+1 states: `stationary_distribution(lam)`,
an independent re-solve of a given matrix, and the factor of F in
`mixing_analysis`, whose v = H^-1 delta_k lives on all states.  Scoring
builds no dense (K+1)^2 matrix, except the prefix of a chain sent to GTH
(see below); `build_transition_enumerative` gives lam to the callers
that want it.

From state i the chain moves only to i-m or i-m+A (0 <= m <= M), so
lam - I has A sub- and M super-diagonals and only the ones row of H is
dense.  Substituting tail sums for pi turns that row into e_0, and H
factors as a band matrix (LAPACK gbtrf/gbtrs, partial pivoting within
the band) in O(K (A+M) A) time and O(K (A+M)) memory, against O(K^3)
and O(K^2) dense.

The closed prefix of a chain is 0..n_c-1, n_c the smallest n such that
(i) no move leaves states 0..n-1 and (ii) every state >= n moves to a
lower state with positive probability.  By (ii) every state >= n_c
reaches the prefix, and by (i) never returns, so those states are
transient and every closed class lies in the prefix: the chain is
singular (has more than one closed class) exactly when the prefix chain
is, and pi is the prefix chain's pi followed by exact zeros.  Both
conditions are integer operations on the support of each policy row, one
rule for policy matrices and action maps alike (`_prefix_sizes`): with
lo_k and hi_k the least and greatest action that state k takes with
positive probability (both its action a_k, for a map), state k reaches
k - lo_k + A at most (the arrival move, alpha > 0), so 0..n-1 is closed
where the running maximum of k - lo_k + A over k < n is at most n-1; and
it moves down iff hi_k >= 1, or hi_k > A when alpha = 1 (every move then
takes an arrival).  lam's entries alpha f, and (1-alpha) f when
alpha < 1, are nonzero wherever f is (barring underflow), so the supports
give lam's nonzero pattern.  On the ladder K=203 walk the 322 chains have
64 of 204 states on average, and the brute-force chains 78% of theirs.

The run rule.  The prefix chain, and so the verdict, pi and rewards,
depend only on n_c and the actions of states 0..n_c-1 (the band's columns
there, and the per-state powers there, which are all the reductions
read): two maps with the same n_c that agree on their prefix score bit
for bit alike.  Brute force enumerates the last state fastest, so such
maps come in runs of neighbours, and `score_map_runs` factors the first
map of each run alone and gives every map its run's scores: 1,073 chains
of 2,304 at Q=5, 4,246 of 9,216 at Q=6 and 101,203 of 259,200 at ladder
K=9.  The walk's stacks hold about two chains each, too few to repay the
search for runs, so it scores every map (`score_maps`).

The N balance systems of a stack are laid side by side as one
block-diagonal band with the same kl and ku, a block of n_c columns per
chain, so one gbtrf and one gbtrs call serve the whole stack.  This is
exact: the band entries that cross blocks are exact zeros (no move leaves
a prefix), so partial pivoting never picks a row of another block (gbtf2
takes the first entry of largest magnitude, and skips the update of a
column whose pivot is exactly zero), and the rank-one updates add exact
zeros outside the block; each block's factors and pivots are bit for bit
those of its own factorization, wherever it starts.  The solve is the
exception: a zero pivot gives inf, and 0*inf = NaN in the back
substitution would cross into the previous block.  So the chains with a
pivot below SINGULAR_TOL are removed from the factors before any solve.
The residuals (the refinement's x - lam x and the stationarity check's
lam pi - pi) each take one BLAS gbmv over the block-diagonal band of lam,
which adds each entry of a row in column order, the exact zeros of other
chains included, so a chain's product is bit for bit that of its band
alone.  Every per-chain reduction (the ones row, the sum of pi, the
reward and delay dot products, the largest correction and residual) is
one segment of a ufunc `reduceat` over the chain's own columns, which
rounds the same wherever the segment starts.  Padding the chains of a
stack to one length would not: pairwise sums and BLAS dots round
differently over a longer vector.

A chain is classified singular when a pivot of the banded LU falls below
SINGULAR_TOL.  On the brute-force instances (alpha=0.4, A=2, M=3, Q=5 and
Q=6) the largest such pivot of a singular chain is 2.4e-15 and the
smallest of a nonsingular chain 0.030 (the dense LU of H gave 5.0e-16 and
0.030), and the tolerance 1e-12 classifies the same 539 of 2304 and 2795
of 9216 chains as singular.  The gap narrows as alpha nears 0 or 1,
where nearly decomposable chains have pivots of order alpha^j or
(1-alpha)^j; there the transient states past the prefix no longer blur
the verdict, and the chains the LU cannot resolve go to GTH (below),
whose closed-class count is exact: at alpha=0.999 the prefix solve
misclassifies none of 2304 chains (Q=5) and 1 of 9216 (Q=6) against the
exact closed-class count, the full-size solve none and 2 (3 and 48, 11
and 116 with refinement alone).

Every chain takes one refinement step.  A well-conditioned chain needs
no more: on the brute-force instances and the walk at K=203 the
correction is at most 2.6e-14, and one flat maximum settles the whole
stack.  A chain whose correction exceeds REFINE_TOL is nearly
decomposable, and refinement with a working-precision residual cannot
be trusted to reach the exact pi: at alpha=0.994, A=M=3, Q=3 a chain
whose last prefix state is transient has an LU pi 1.3e-14 off the exact
one, and a correction of 1.1e-12 that moves it 1.1e-12 off.  Such a
chain is solved again by `_closed_class_pi`: the transitive closure of
lam's nonzero pattern gives its closed classes, exactly, and GTH
elimination, which never subtracts, solves the one closed class, or the
chain is singular.  At alpha=1e-4, A=M=2, Q=4, the chain whose mass sits
in states 4 and 6 (cond(H) 8.1e12, smallest pivot 1.0e-8, first
correction 6.1e-5) ends 1.1e-16 from the exact pi.  Such chains are
rare: none on the brute-force instances at alpha=0.4 or the walk at
ladder K=22 to 203, 36 of 2304 at alpha=0.01 and 165 of 9216 at
alpha=0.999, Q=6; each is a dense solve of its prefix, O(n^3).
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from ._lapack import dgbmv, dgbtrf, dgbtrs
from .errors import DegenerateSegment, RowDiffCountMismatch, SingularChain
from .model import ModelParams, Policy

# A pivot of the banded LU below this magnitude marks the balance system as
# singular (multiple recurrent classes).  Basis, measured on every
# deterministic policy of the brute-force instances: singular chains give
# rounding-level pivots (at most 2.4e-15), nonsingular ones at least 0.030.
SINGULAR_TOL = 1e-12
STATIONARITY_TOL = 1e-10
# A chain whose one refinement correction exceeds REFINE_TOL is solved
# again by GTH elimination on its closed class (see the module docstring).
REFINE_TOL = 1e-12


@dataclass(frozen=True)
class DelayPowerPoint:
    """Reward pair of a policy: average power and average delay (slots)."""

    power: float
    delay: float
    policy: Optional[Policy] = None
    thresholds: Optional[tuple[int, ...]] = None


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _matrix(policy: Union[Policy, np.ndarray]) -> np.ndarray:
    return policy.f if isinstance(policy, Policy) else policy


def _lam_band(params: ModelParams, f: np.ndarray) -> np.ndarray:
    """Band (A+M+1, n) of lam's columns for the feasible policy rows f
    (n, M+1), one per column: band[t, k] = lam[k - M + t, k] for
    t = 0..A+M, so band[:, k] is column k of lam from row k-M to row k+A.

    Every entry sums the same terms in the same order as a loop over
    (state, action) events: the no-arrival move to k-m (t = M-m), then the
    arrival move to k-m+A (t = M-m+A).  The entries above row 0 or below
    row K are exact zeros, since f is zero on infeasible actions.  The band
    is a view of (n, A+M+1) memory, t varying fastest: the BLAS band
    storage that `lu_factor` keeps without a copy unless it drops a
    singular chain.
    """
    A, M, alpha = params.A, params.M, params.alpha
    band = np.zeros((len(f), A + M + 1)).T
    np.multiply(f.T, 1 - alpha, out=band[: M + 1][::-1])
    band[A:][::-1] += alpha * f.T
    return band


def _map_band(params: ModelParams, acts: np.ndarray) -> np.ndarray:
    """The band of `_lam_band`, laid out as its, for the flat actions acts
    (n,) of deterministic rows, bit for bit that of their one-hot rows, by
    two scatter writes: 1-alpha at t = M-a and alpha at t = M-a+A for the
    action a of each column.  A >= 1 puts the two in different rows, where
    `_lam_band` adds alpha to an exact zero, and its other terms are exact
    zeros."""
    A, M, w = params.A, params.M, params.A + params.M + 1
    band = np.zeros((acts.size, w))
    flat = band.reshape(-1)
    t = np.arange(0, flat.size, w) + (M - acts)
    flat[t] = 1 - params.alpha
    flat[t + A] = params.alpha
    return band.T


def _prefix_sizes(params: ModelParams, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The closed prefix n_c of each chain of a stack, by the rule of the
    module docstring, from the least and greatest action lo, hi (N, K+1)
    that each state takes with positive probability (both the action map,
    for a deterministic policy)."""
    n, A = lo.shape[1], params.A
    k = np.arange(n)
    # state k reaches k - lo + A at most, so a prefix 0..k is closed where
    # the running maximum of k - lo is at most k - A
    lead = k - lo
    # n_c - 1 is at least the last state without a move down (state 0 has
    # none), which is folded into state 0's value; with alpha = 1 every
    # move takes an arrival, so a state moves down only if hi > A
    down = hi > (A if params.alpha == 1 else 0)
    lead[:, 0] = np.maximum(lead[:, 0], (n - 1 - A) - down[:, ::-1].argmin(axis=1))
    return (np.maximum.accumulate(lead, axis=1) <= k - A).argmax(axis=1) + 1


def _band_index(n: int, lower: int, upper: int) -> tuple[np.ndarray, np.ndarray]:
    """Flat indices j n + k into an n x n matrix of the band entries
    [t, k] (row j = k - upper + t), and the mask of those inside it."""
    k = np.arange(n)
    j = k - upper + np.arange(lower + upper + 1)[:, None]
    keep = (j >= 0) & (j < n)
    return np.where(keep, j * n + k, 0), keep


def _gather_band(lam: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """The band (lower+upper+1, n) of an n x n matrix lam, rows as
    `_lam_band`'s."""
    index, keep = _band_index(len(lam), lower, upper)
    return lam.take(index) * keep


def _band_matrix(band: np.ndarray, lower: int, upper: int) -> np.ndarray:
    """The n x n matrix of a band (lower+upper+1, n), rows as
    `_lam_band`'s: the inverse of `_gather_band`."""
    n = band.shape[1]
    index, keep = _band_index(n, lower, upper)
    lam = np.zeros((n, n))
    lam.reshape(-1)[index[keep]] = band[keep]
    return lam


def build_transition_enumerative(
    params: ModelParams, policy: Union[Policy, np.ndarray]
) -> np.ndarray:
    """Transition matrix by direct enumeration of (action, arrival) events.

    Takes a Policy or its matrix (K+1, M+1).  Returns the read-only
    (K+1)x(K+1) column-stochastic matrix lam: lam[j, i] is the probability
    of moving from state i to state j, so each column indexes a source
    state and sums to 1.  From state i,
    transmitting m bits leads to i-m without an arrival (probability
    1-alpha) and to i-m+A with one (probability alpha).  The entries are
    those of `_lam_band`, which the scoring path uses instead.
    """
    return _read_only(_band_matrix(_lam_band(params, _matrix(policy)), params.A, params.M))


def build_transition_piecewise(params: ModelParams, policy: Policy) -> np.ndarray:
    """Transition matrix by the six-case closed-form rule.

    Returns the same read-only column-stochastic matrix as
    `build_transition_enumerative` (lam[j, i] is the probability of moving
    from state i to state j).  Cases are selected on the jump i-j and the
    target state j; kept as a literal transcription so it can cross-check
    the enumerative builder.
    """
    K, A, M, alpha = params.K, params.A, params.M, params.alpha
    f = policy.f
    lam = np.zeros((K + 1, K + 1))
    for i in range(K + 1):
        for j in range(K + 1):
            d = i - j
            if M - A < d <= M:
                lam[j, i] = (1 - alpha) * f[i, d]
            elif 0 <= d <= M - A and j < A:
                lam[j, i] = (1 - alpha) * f[i, d]
            elif 0 <= d <= M - A and A <= j <= K - A:
                lam[j, i] = (1 - alpha) * f[i, d] + alpha * f[i, d + A]
            elif 0 <= d <= M - A and j > K - A:
                lam[j, i] = alpha * f[i, d + A]
            elif -A <= d < 0 and j >= A:
                lam[j, i] = alpha * f[i, d + A]
            # else zero
    return _read_only(lam)


@dataclass(frozen=True)
class BandLU:
    """Banded LU factors of the balance systems H of a stack of chains,
    each on its first states (its closed prefix, when scored), taken
    through the tail-sum substitution pi = D z (`lu_factor`).

    `chains` holds the stack indices of the chains factored (those whose
    pivots all pass SINGULAR_TOL), laid side by side as the blocks of one
    block-diagonal band: chain chains[i] has `sizes[i]` columns from
    `starts[i]` to `last[i]`, and `columns` picks them out of the columns
    `lu_factor` was given (slice(None) when it kept every chain).  band
    holds their lam bands in BLAS band storage (kl+ku, columns), with kl-1
    sub- and ku super-diagonals."""

    band: np.ndarray
    ab: np.ndarray
    piv: np.ndarray
    kl: int
    ku: int
    chains: np.ndarray
    columns: Union[np.ndarray, slice]
    starts: np.ndarray
    last: np.ndarray
    sizes: np.ndarray


@lru_cache(maxsize=16)
def _balance_offsets(kl: int, ku: int, rows: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Offsets into the Fortran-order entries of `_balance_band`'s ab:
    before a block's end, of the entries of the lam row the block drops;
    after its start, of its first column's rows kl..kl+ku, with their
    values (zeros, and the ones row at kl+ku)."""
    first = np.arange(kl, kl + ku + 1)
    return (_read_only(kl + (rows - 1) * np.arange(kl)), _read_only(first),
            _read_only((first == kl + ku).astype(float)))


def _balance_band(band: np.ndarray, lower: int, upper: int, sizes: np.ndarray) -> np.ndarray:
    """H D of every chain of a stack of lam bands in BLAS band storage
    (lower+upper+1, columns), one block of `sizes[i]` columns per chain, as
    LAPACK band storage of one block-diagonal band: with kl = lower+1 and
    ku = upper, ab[kl + ku + r - k, s + k] = (H D)[r, k] of the chain whose
    block starts at column s, and the top kl rows are the fill-in space of
    gbtrf.  Each block must have at least kl columns."""
    w = len(band)
    kl, ku = lower + 1, upper
    rows = kl + w + 1
    ends = sizes.cumsum()
    dropped, first, ones = _balance_offsets(kl, ku, rows)
    ab = np.zeros((rows, band.shape[1]), order="F")
    flat = ab.T.reshape(-1)  # entry [i, j] is flat[j rows + i]
    # band of H: ab[kl + t, s + k] = H[k - ku + t, k], where H's row r is
    # row r-1 of lam - I, and the block's last row of lam, in rows kl+ku+1+d
    # of its last columns d, is dropped
    ab[kl + 1:] = band
    ab[kl + ku + 1] -= 1.0  # the diagonal
    flat[(ends * rows)[:, None] - dropped] = 0.0
    # (H D)[r, k] = H[r, k] - H[r, k-1] is ab[i, j] - ab[i+1, j-1], one
    # offset apart in Fortran order; at a block's first column that reads
    # the previous block's last column, which holds zeros there but above
    # row kl + ku: no move leaves a block
    flat[kl + w:] -= flat[: -(kl + w)]  # numpy reads the overlapping right side first
    # a block's first column above row kl + ku + 1: zeros, and the ones row
    # of H times D
    flat[((ends - sizes) * rows)[:, None] + first] = ones
    return ab


def lu_factor(band: np.ndarray, lower: int, upper: int, sizes: np.ndarray) -> BandLU:
    """Factor the normalized balance systems H (a ones row over the first
    n-1 rows of lam - I) of a stack of chains of `sizes` states each, given
    by their lam bands laid side by side, (lower+upper+1, columns): a stack
    cut to its closed prefixes, or one chain of all its states.  No move
    may leave a chain's states.

    With z_k = sum_{j>=k} pi_j, pi = D z for the unit upper bidiagonal D
    (pi_k = z_k - z_{k+1}); the ones row of H D is e_0, so H D is banded
    with kl = lower+1 sub- and ku = upper super-diagonals and factors by
    LAPACK's dgbtrf (partial pivoting within the band) in O(K (kl+ku) kl).
    The stack is factored as one block-diagonal band, a block per chain of
    its own size; a chain with a pivot of U below SINGULAR_TOL is removed
    from the factors, so that no solve sees it (`BandLU.chains` lists the
    chains kept).
    """
    # BLAS band storage, t varying fastest: a builder's band is kept as it
    # is, a band gathered out of lam is copied
    band = np.asfortranarray(band)
    kl, ku = lower + 1, upper
    ab, piv, _ = dgbtrf(_balance_band(band, lower, upper, sizes), kl, ku, overwrite_ab=1)
    ends = sizes.cumsum()
    pivots = np.abs(ab[kl + ku])  # U's diagonal
    chains, columns = np.arange(len(sizes)), slice(None)
    if not pivots.min(initial=np.inf) >= SINGULAR_TOL:  # one flat minimum first: usually none is
        kept = np.minimum.reduceat(pivots, ends - sizes) >= SINGULAR_TOL
        chains = kept.nonzero()[0]
        columns = kept.repeat(sizes).nonzero()[0]
        ab, band = ab.T.take(columns, axis=0).T, band.T.take(columns, axis=0).T
        # pivots are global row numbers: shift each kept block to its new place
        shift = (ends - sizes) - ((sizes * kept).cumsum() - sizes * kept)
        sizes = sizes[chains]
        piv = piv.take(columns) - shift[chains].repeat(sizes)
        ends = sizes.cumsum()
    return BandLU(band, ab, piv, kl, ku, chains, columns, ends - sizes, ends - 1, sizes)


def lu_solve(lu: BandLU, b: np.ndarray) -> np.ndarray:
    """x = H^-1 b for every chain of the factors, b (flat) holding their
    columns in order: solve for z, then x = D z block by block."""
    if not lu.chains.size:
        return b.copy()  # gbtrs rejects an empty band
    z, _ = dgbtrs(lu.ab, lu.kl, lu.ku, b, lu.piv)
    x = z.copy()
    x[:-1] -= z[1:]
    x[lu.last] = z[lu.last]  # a block's last tail sum is its last mass
    return x


def _lam_matvec(band: np.ndarray, lower: int, upper: int, x: np.ndarray) -> np.ndarray:
    """lam x per chain of a stack of lam bands in BLAS band storage
    (lower+upper+1, columns), with x (flat) holding their columns: one BLAS
    gbmv over the block-diagonal band.  Its entries that cross chains are
    exact zeros, which add nothing, so each chain's product is bit for bit
    the product of its band alone."""
    w, cols = len(band), x.size
    if not cols:
        return x.copy()
    # the wrapper wants at least kl+ku+1 rows, also for a stack narrower
    # than that: rows past the stack are never read into y[:cols]
    return dgbmv(max(cols, w), cols, lower, upper, 1.0, band, x)[:cols]


def _residual(lu: BandLU, x: np.ndarray) -> np.ndarray:
    """e_0 - H x for every chain of the factors, x holding their columns."""
    r = np.empty_like(x)
    np.subtract(x[:-1], _lam_matvec(lu.band, lu.kl - 1, lu.ku, x)[:-1], out=r[1:])
    r[lu.starts] = 1.0 - np.add.reduceat(x, lu.starts)
    return r


def _exceeds(lu: BandLU, a: np.ndarray, bound: float):
    """Whether an entry of a, holding the columns of the factored chains,
    exceeds bound, per chain; False when none does, which one flat maximum
    settles first, as usually none does."""
    if a.max() <= bound:
        return False
    return np.maximum.reduceat(a, lu.starts) > bound


def _stationary(lu: BandLU) -> tuple[np.ndarray, np.ndarray]:
    """Stationary solves H pi = e_0 of the factored chains, their columns
    in order, with one step of iterative refinement against H itself,
    cleaned by `_clean_pi`, whose mask of failed chains comes with them.
    A chain whose correction exceeds REFINE_TOL is solved again by
    `_closed_class_pi` on its dense lam, and fails if it has more than one
    closed class.  Each chain's pi depends on its own columns alone, so it
    is bit for bit that of its own solve."""
    if not lu.chains.size:
        return np.empty(0), np.zeros(0, dtype=bool)
    e0 = np.zeros(lu.band.shape[1])
    e0[lu.starts] = 1.0
    x = lu_solve(lu, e0)
    d = lu_solve(lu, _residual(lu, x))
    x += d
    rough = _exceeds(lu, np.abs(d), REFINE_TOL)
    if rough is False:  # the usual case: every correction is within REFINE_TOL
        return _clean_pi(lu, x)
    several = np.zeros(lu.chains.size, dtype=bool)
    for i in rough.nonzero()[0]:
        block = slice(lu.starts[i], lu.last[i] + 1)
        pi = _closed_class_pi(_band_matrix(lu.band[:, block], lu.kl - 1, lu.ku))
        if pi is None:
            several[i] = True
        else:
            x[block] = pi
    pi, failed = _clean_pi(lu, x)
    return pi, failed | several


def _closed_class_pi(lam: np.ndarray) -> Optional[np.ndarray]:
    """The stationary distribution of the column-stochastic lam (n x n),
    or None when lam has more than one closed class (or a pivot
    underflows).  The closed class comes from the transitive closure of
    lam's nonzero pattern; its states keep their order, and GTH
    elimination (Grassmann, Taksar & Heyman 1985) censors them out from
    the last to the second, each pivot the state's outflow to the states
    left, which is positive in an irreducible chain.  No subtraction
    occurs, so every entry has a small relative error (O'Cinneide 1993);
    the transient states get exact zeros."""
    n = len(lam)
    p = lam.T  # p[i, j]: probability of i -> j
    reach = (p != 0) | np.eye(n, dtype=bool)
    while True:
        grown = (reach @ reach.astype(float)) > 0
        if (grown == reach).all():
            break
        reach = grown
    closed = (reach <= reach.T).all(axis=1).nonzero()[0]  # the recurrent states
    if not reach[np.ix_(closed, closed)].all():
        return None
    q = p[np.ix_(closed, closed)]
    for k in range(len(closed) - 1, 0, -1):
        q[:k, k] /= q[k, :k].sum()
        q[:k, :k] += np.outer(q[:k, k], q[k, :k])
    x = np.zeros(len(closed))
    x[0] = 1.0
    for k in range(1, len(closed)):
        x[k] = x[:k] @ q[:k, k]
    if not np.isfinite(x).all():
        return None
    pi = np.zeros(n)
    pi[closed] = x / x.sum()
    return pi


def _clean_pi(lu: BandLU, pi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Clip and normalize the stationary solves pi of the factored chains,
    their columns in order.  Returns them with the mask of the chains that
    fail (False when none does): mass below -SINGULAR_TOL or a
    stationarity residual above STATIONARITY_TOL."""
    failed = _exceeds(lu, -pi, SINGULAR_TOL)
    pi = np.maximum(pi, 0.0)
    pi /= np.add.reduceat(pi, lu.starts).repeat(lu.sizes)  # sum(pi) = z_0 = 1: never 0
    failed |= _exceeds(lu, np.abs(_lam_matvec(lu.band, lu.kl - 1, lu.ku, pi) - pi),
                       STATIONARITY_TOL)
    return pi, failed


def _singular(lu: BandLU, chain: int = 0) -> SingularChain:
    """The error of a chain of a stack (the only one by default) whose solve
    failed."""
    if chain not in lu.chains:
        return SingularChain(
            "balance system is numerically singular (pivot below "
            f"{SINGULAR_TOL}); the chain likely has multiple recurrent classes"
        )
    return SingularChain(
        f"stationary solve has mass below {-SINGULAR_TOL}, a stationarity "
        f"residual above {STATIONARITY_TOL}, a delay below {-STATIONARITY_TOL} "
        "or more than one closed class; the chain likely has multiple recurrent classes"
    )


def _bandwidths(lam: np.ndarray) -> tuple[int, int]:
    """Sub- and super-diagonal count of lam's nonzero pattern."""
    j, i = np.nonzero(lam)
    return max(int((j - i).max()), 0), max(int((i - j).max()), 0)


def stationary_distribution(lam: np.ndarray) -> np.ndarray:
    """Read-only stationary distribution of the transition matrix lam, from
    the banded factors of its normalized balance system over all its
    states: the solve of `score_stack`, entered through the band gathered
    out of lam."""
    lower, upper = _bandwidths(lam)
    lu = lu_factor(_gather_band(lam, lower, upper), lower, upper, np.array([len(lam)]))
    pi, failed = _stationary(lu)
    if not lu.chains.size or np.any(failed):
        raise _singular(lu)
    return _read_only(pi)


def power_reward_vector(params: ModelParams, policy: Union[Policy, np.ndarray]) -> np.ndarray:
    """Per-state expected transmission power (per chain of a stack)."""
    return _matrix(policy) @ params.power_array


def average_power(params: ModelParams, policy: Policy, pi: np.ndarray) -> float:
    return float(power_reward_vector(params, policy) @ pi)


def average_delay(params: ModelParams, pi: np.ndarray) -> float:
    """Average delay in slots of pi by Little's law: mean backlog over the
    arrival rate alpha*A, minus the one-slot arrival itself."""
    d = float(np.arange(params.K + 1.0) @ pi) / (params.alpha * params.A) - 1.0
    if d < -STATIONARITY_TOL:
        raise SingularChain(f"negative average delay {d}")
    return max(d, 0.0)


def _score(params: ModelParams, band: np.ndarray, rewards: np.ndarray, states: np.ndarray,
           sizes: np.ndarray):
    """Score the chains of a stack cut to their closed prefixes of `sizes`
    states, given the band of lam (A+M+1, columns), the per-state powers
    and the state of every prefix column, through one block-diagonal
    factorization of their balance systems: the core of `score_stack`,
    `score_maps` and brute force.  Every reduction runs over a chain's own
    states."""
    lu = lu_factor(band, params.A, params.M, sizes)
    pi, failed = _stationary(lu)
    power = np.add.reduceat(rewards[lu.columns] * pi, lu.starts)
    backlog = np.add.reduceat(states[lu.columns] * pi, lu.starts)
    delay = backlog / (params.alpha * params.A) - 1.0
    failed = failed | (delay < -STATIONARITY_TOL)
    if failed.any():
        kept = ~failed
        return lu, lu.chains[kept], power[kept], np.maximum(delay[kept], 0.0)
    return lu, lu.chains, power, np.maximum(delay, 0.0)


def score_stack(params: ModelParams, f: np.ndarray):
    """Score a stack of policy matrices f (N, K+1, M+1) through one
    block-diagonal factorization of their balance systems, each chain on
    its closed prefix (`_prefix_sizes`, from the least and greatest action
    of each row's support), with the band of the prefix rows alone
    (`_lam_band`).

    Returns the factors of the chains that pass the pivot test, the indices
    into f of the chains that pass every check, and those chains' average
    powers and delays.  The other chains are singular.  From state i a
    chain moves only to i-m or i-m+A, so lam has A sub- and M
    super-diagonals.
    """
    pos = f > 0
    sizes = _prefix_sizes(params, pos.argmax(-1), params.M - pos[..., ::-1].argmax(-1))
    cut = np.arange(params.K + 1) < sizes[:, None]
    return _score(params, _lam_band(params, f[cut]), power_reward_vector(params, f)[cut],
                  cut.nonzero()[1], sizes)


def score_maps(params: ModelParams, acts: np.ndarray):
    """`score_stack` for a stack of deterministic policies given as action
    maps acts (N, K+1), bit for bit that of their one-hot policy matrices:
    each chain's closed prefix from its map (`_prefix_sizes`, with the map
    as both ends of every support), the band of the prefix rows from their
    actions (`_map_band`), and the per-state powers power[a], which are the
    one-hot rows' products with power exactly."""
    return _score_maps(params, acts, _prefix_sizes(params, acts, acts))


def _score_maps(params: ModelParams, acts: np.ndarray, sizes: np.ndarray):
    """`score_maps` of the action maps acts (N, K+1) with closed prefixes
    of `sizes` states, built for the prefix rows alone."""
    cut = np.arange(acts.shape[1]) < sizes[:, None]
    prefix = acts[cut]
    return _score(params, _map_band(params, prefix), params.power_array[prefix],
                  cut.nonzero()[1], sizes)


def score_map_runs(params: ModelParams, acts: np.ndarray):
    """`score_maps` of the action maps acts (N, K+1) by the run rule (see
    the module docstring): a map leads a run unless its closed prefix size
    equals its predecessor's and it takes its predecessor's actions on
    every state of that prefix.  Only the leads are factored, by one
    stack, and every map takes its lead's verdict and scores, bit for bit
    those of `score_maps` on the whole stack.  Returns the indices into
    acts of the maps that pass every check, and their average powers and
    delays."""
    sizes = _prefix_sizes(params, acts, acts)
    lead = np.ones(len(acts), dtype=bool)
    agree = (acts[1:] == acts[:-1]) | (np.arange(acts.shape[1]) >= sizes[1:, None])
    lead[1:] = (sizes[1:] != sizes[:-1]) | ~agree.all(axis=1)
    first = lead.nonzero()[0]
    _, kept, power, delay = _score_maps(params, acts[first], sizes[first])
    passed = np.zeros(first.size, dtype=bool)
    passed[kept] = True
    run = lead.cumsum() - 1  # each map's run, as an index into first
    rows = passed[run].nonzero()[0]
    at = (passed.cumsum() - 1)[run[rows]]  # the run's place in kept
    return rows, power[at], delay[at]


def evaluate(params: ModelParams, policy: Policy) -> DelayPowerPoint:
    """Average (power, delay) reward pair of a policy (the one-chain stack)."""
    lu, chains, power, delay = score_stack(params, policy.f[None])
    if not chains.size:
        raise _singular(lu)
    return DelayPowerPoint(power=power.item(), delay=delay.item(), policy=policy)


def mix_policies(F: Policy, F2: Policy, epsilon: float) -> Policy:
    """Entrywise convex combination (1-epsilon)*F + epsilon*F2."""
    if F.f.shape != F2.f.shape:
        raise RowDiffCountMismatch("policies have different shapes")
    if not 0.0 <= epsilon <= 1.0:
        raise ValueError(f"epsilon must be in [0, 1], got {epsilon}")
    return Policy(F.params, (1 - epsilon) * F.f + epsilon * F2.f)


@dataclass(frozen=True)
class MixingAnalysis:
    """Closed-form geometry of mixing two policies differing in row k.

    The reward pair of the epsilon-mixture equals the epsilon'-weighted
    combination of the endpoint reward pairs, where epsilon' depends on
    the coupling h_k . delta_k: h_k is row k of the inverse balance matrix
    of the first policy and delta_k the only nonzero column of the balance
    matrix difference.  v = H^-1 delta_k, so the coupling is v[k].

    By the same rank-one update, the mixture's delay and power changes are
    one common factor times delay_direction = states . v and
    power_direction = alpha*A*(r_F . v - zeta_k), where r_F is the first
    policy's per-state power; so the segment slope is their ratio.
    """

    k: int
    delta_k: np.ndarray
    zeta_k: float
    v: np.ndarray
    endpoint_a: DelayPowerPoint
    endpoint_b: DelayPowerPoint
    delay_direction: float
    power_direction: float

    @property
    def coupling(self) -> float:
        return float(self.v[self.k])

    def epsilon_prime(self, epsilon: float) -> float:
        u = self.coupling
        return (epsilon + epsilon * u) / (1.0 + epsilon * u)

    def predicted_point(self, epsilon: float) -> tuple[float, float]:
        w = self.epsilon_prime(epsilon)
        pa, pb = self.endpoint_a, self.endpoint_b
        return (
            (1 - w) * pa.power + w * pb.power,
            (1 - w) * pa.delay + w * pb.delay,
        )

    def _power_gap(self) -> float:
        dp = self.endpoint_b.power - self.endpoint_a.power
        if abs(dp) < 1e-12:
            raise DegenerateSegment(
                f"endpoint powers coincide ({self.endpoint_a.power}); slope undefined"
            )
        return dp

    @property
    def slope(self) -> float:
        """Closed-form slope (delay per unit power) of the segment."""
        self._power_gap()
        return self.delay_direction / self.power_direction

    @property
    def chord_slope(self) -> float:
        """Finite-difference slope between the two endpoint reward pairs."""
        return (self.endpoint_b.delay - self.endpoint_a.delay) / self._power_gap()


def mixing_analysis(params: ModelParams, F: Policy, F2: Policy) -> MixingAnalysis:
    """Mixing geometry of F and F2 from one factorization of F's balance
    matrix; raises RowDiffCountMismatch unless they differ in exactly one row."""
    rows = F.differing_rows(F2)
    if len(rows) != 1:
        raise RowDiffCountMismatch(
            f"policies differ in {len(rows)} rows, expected exactly 1"
        )
    k = rows[0]
    point_a = evaluate(params, F)
    point_b = evaluate(params, F2)
    # v lives on all K+1 states: F's balance system is factored in full
    K, M = params.K, params.M
    lu_a = lu_factor(_lam_band(params, F.f), params.A, M, np.array([K + 1]))
    if not lu_a.chains.size:
        raise _singular(lu_a)
    # H_F2 - H_F is zero outside column k, which depends on row k of the
    # policy only; its ones row cancels too
    delta = (_lam_band(params, F2.f[k:k + 1]) - _lam_band(params, F.f[k:k + 1]))[:, 0]
    j = k - M + np.arange(delta.size)  # the rows of lam that delta spans
    keep = (j >= 0) & (j < K)
    delta_k = np.zeros(K + 1)
    delta_k[1 + j[keep]] = delta[keep]
    power_a = power_reward_vector(params, F)
    zeta_k = float(power_reward_vector(params, F2)[k] - power_a[k])
    v = lu_solve(lu_a, delta_k)
    return MixingAnalysis(
        k=k,
        delta_k=delta_k,
        zeta_k=zeta_k,
        v=v,
        endpoint_a=point_a,
        endpoint_b=point_b,
        delay_direction=float(np.arange(K + 1, dtype=float) @ v),
        power_direction=params.alpha * params.A * (float(power_a @ v) - zeta_k),
    )
