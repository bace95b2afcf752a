/* Native engine of qrerank: the tree kernels and the combined-kernel rows of
 * qrerank.kernels, then the SMO step of qrerank.svm, then the counts behind
 * the text similarities of qrerank.features.
 *
 * The tree-kernel entry point, qrerank_tree_block, evaluates a block of tree
 * pairs: each of a row's trees against the same-position tree of every
 * column, PTK or STK, raw (unnormalized). It
 * reads the call's subtree table and compiled trees as the flat int32
 * arrays kernels._Subtrees keeps:
 *
 *   labels[s], prods[s]   label and production id of subtree s (prod -1:
 *                         a leaf); labels and productions share one id space
 *   kid_off, kid_ids      child CSR: the children of s are
 *                         kid_ids[kid_off[s] .. kid_off[s+1])
 *   forest                every compiled tree, packed at its offset as
 *                         n, k, ids[n], counts[n], keys[k], ends[k],
 *                         bucket_ids[m], bucket_counts[m]  (m = ends[k-1]);
 *                         ids ascend, keys ascend, bucket j holds the
 *                         (id, count) pairs of key j between ends[j-1]
 *                         (0 for j = 0) and ends[j]
 *
 * Every value and work count (Δ values, DP runs) equals the Python engine's,
 * which mirrors tree_pair, delta_ptk, delta_stk and subsequence_sum below as
 * kernels._tree_pair, _delta_ptk, _delta_stk and _subsequence_sum: each Δ is
 * evaluated with the same operations in the same order, and every sum is
 * exactly rounded, as math.fsum is. The library must be compiled with
 * -ffp-contract=off and without -ffast-math, so that no multiply-add is fused
 * and no operation reassociated.
 *
 * A Δ memo keyed by (row subtree, column subtree) serves all the block's
 * tree pairs and is dropped when the call returns. Each tree pair walks the
 * row tree's subtree ids in ascending order; a child's id is smaller than its
 * parent's, so every matched child pair is in the memo before its parent
 * reads it, and a memo miss means the labels (STK: productions) differ. No
 * recursion: any depth works. DP buffers grow to the largest child block met.
 *
 * qrerank_kernel_row computes one whole row of a Gram or scoring matrix, the
 * similarity, tree and rank blocks of kernels._row, with one memo for the
 * row's tree pairs.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, NO_MEMORY = 1, OVERFLOW = 2, DEGENERATE = 3 };

/* ------------------------------------------------------------------------
 * exactly rounded sums: Shewchuk's non-overlapping partials, finished as
 * CPython's math.fsum finishes them (half-even across partials)
 * ---------------------------------------------------------------------- */

typedef struct {
    double *p;
    int64_t n, cap;
    double special;     /* sum of the non-finite terms, as fsum keeps it */
} Sum;

static void sum_reset(Sum *s) { s->n = 0; s->special = 0.0; }

static void sum_add(Sum *s, double x, int *status)
{
    double xsave = x;
    int64_t i = 0;
    for (int64_t j = 0; j < s->n; j++) {
        double y = s->p[j];
        if (fabs(x) < fabs(y)) { double t = x; x = y; y = t; }
        double hi = x + y;
        double lo = y - (hi - x);
        if (lo != 0.0)
            s->p[i++] = lo;
        x = hi;
    }
    s->n = i;
    if (x == 0.0)
        return;
    if (!isfinite(x)) {
        if (isfinite(xsave)) {      /* math.fsum: "intermediate overflow" */
            *status = OVERFLOW;
            return;
        }
        s->special += xsave;        /* terms are never -inf: no inf - inf */
        s->n = 0;
        return;
    }
    if (s->n == s->cap) {
        int64_t cap = s->cap ? 2 * s->cap : 32;
        double *p = realloc(s->p, (size_t)cap * sizeof *p);
        if (!p) { *status = NO_MEMORY; return; }
        s->p = p;
        s->cap = cap;
    }
    s->p[s->n++] = x;
}

static double sum_value(const Sum *s)
{
    if (s->special != 0.0)
        return s->special;
    double hi = 0.0, lo = 0.0;
    int64_t n = s->n;
    const double *p = s->p;
    if (n > 0) {
        hi = p[--n];
        while (n > 0) {             /* add from the top while exact */
            double x = hi, y = p[--n];
            hi = x + y;
            lo = y - (hi - x);
            if (lo != 0.0)
                break;
        }
        if (n > 0 && ((lo < 0.0 && p[n - 1] < 0.0) ||
                      (lo > 0.0 && p[n - 1] > 0.0))) {
            double y = lo * 2.0, x = hi + y;
            if (y == x - hi)
                hi = x;
        }
    }
    return hi;
}

/* ------------------------------------------------------------------------
 * the Δ memo: open addressing on the key (row subtree << 32 | column
 * subtree), linear probing, grown at half load
 * ---------------------------------------------------------------------- */

#define EMPTY UINT64_MAX

typedef struct {
    uint64_t *keys;
    double *vals;
    int bits;
    int64_t len;
} Memo;

static int memo_init(Memo *m, int bits)
{
    size_t cap = (size_t)1 << bits;
    m->keys = malloc(cap * sizeof *m->keys);
    m->vals = malloc(cap * sizeof *m->vals);
    if (!m->keys || !m->vals) {
        free(m->keys);
        free(m->vals);
        m->keys = NULL;
        m->vals = NULL;
        return 0;
    }
    memset(m->keys, 0xff, cap * sizeof *m->keys);
    m->bits = bits;
    m->len = 0;
    return 1;
}

static size_t memo_slot(const Memo *m, uint64_t key)
{
    size_t mask = ((size_t)1 << m->bits) - 1;
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> (64 - m->bits));
    while (m->keys[i] != key && m->keys[i] != EMPTY)
        i = (i + 1) & mask;
    return i;
}

static uint64_t memo_key(int32_t s1, int32_t s2)
{
    return (uint64_t)(uint32_t)s1 << 32 | (uint32_t)s2;
}

/* Δ(s1, s2), or 0.0 when the pair is not in the memo */
static double memo_get(const Memo *m, int32_t s1, int32_t s2)
{
    size_t i = memo_slot(m, memo_key(s1, s2));
    return m->keys[i] == EMPTY ? 0.0 : m->vals[i];
}

static int memo_put(Memo *m, uint64_t key, double v)
{
    if (2 * (m->len + 1) > ((int64_t)1 << m->bits)) {
        Memo big;
        if (!memo_init(&big, m->bits + 1))
            return 0;
        for (size_t i = 0; i < (size_t)1 << m->bits; i++) {
            if (m->keys[i] != EMPTY) {
                size_t j = memo_slot(&big, m->keys[i]);
                big.keys[j] = m->keys[i];
                big.vals[j] = m->vals[i];
            }
        }
        big.len = m->len;
        free(m->keys);
        free(m->vals);
        *m = big;
    }
    size_t i = memo_slot(m, key);
    m->keys[i] = key;
    m->vals[i] = v;
    m->len++;
    return 1;
}

/* ------------------------------------------------------------------------
 * one row's state
 * ---------------------------------------------------------------------- */

typedef struct {
    int ptk;
    double lam, mu, lam2, mu_lam2;
    const int32_t *labels, *prods, *kid_off, *kid_ids;
    Memo memo;
    Sum pair_sum, dp_sum;
    double *D, *dps, *nxt, *up, *row;   /* DP buffers */
    int64_t block_cap, width_cap;
    int64_t dp_runs;
    int status;
} Row;

static int grow(double **buf, int64_t n)
{
    double *p = realloc(*buf, (size_t)n * sizeof *p);
    if (!p)
        return 0;
    *buf = p;
    return 1;
}

/* room for an n×m child block */
static int reserve(Row *r, int64_t n, int64_t m)
{
    if (n * m > r->block_cap) {
        if (!grow(&r->D, n * m) || !grow(&r->dps, n * m) ||
            !grow(&r->nxt, n * m))
            return 0;
        r->block_cap = n * m;
    }
    if (m > r->width_cap) {
        if (!grow(&r->up, m) || !grow(&r->row, m))
            return 0;
        r->width_cap = m;
    }
    return 1;
}

/* kernels._subsequence_sum on the n×m block r->D (row-major). The M rows
 * are made one at a time; row i-1 of M feeds row i of the next level. */
static double subsequence_sum(Row *r, int64_t n, int64_t m)
{
    const double *D = r->D;
    const double lam = r->lam, lam2 = lam * lam;
    int64_t nm = n * m, k;
    for (k = 0; k < nm && D[k] == 0.0; k++)
        ;
    if (k == nm)
        return 0.0;     /* every child pair unmatched: no term is nonzero */
    double *dps = r->dps, *nxt = r->nxt;
    sum_reset(&r->dp_sum);
    for (k = 0; k < nm; k++) {
        dps[k] = lam2 * D[k];
        if (dps[k] != 0.0)
            sum_add(&r->dp_sum, dps[k], &r->status);
    }
    int64_t depth = n < m ? n : m;
    for (int64_t p = 2; p <= depth; p++) {
        double *up = r->up, *row = r->row;
        for (int64_t j = 0; j < m; j++)
            up[j] = 0.0;
        memset(nxt, 0, (size_t)nm * sizeof *nxt);
        int alive = 0;
        for (int64_t i = 0; i + 1 < n; i++) {
            const double *dps_i = dps + i * m;
            row[0] = 0.0;
            for (int64_t j = 0; j + 1 < m; j++)
                row[j + 1] = dps_i[j] + lam * (up[j + 1] + row[j])
                             - lam2 * up[j];
            /* row is M[i]: it feeds row i+1 of the next level */
            const double *D_next = D + (i + 1) * m;
            double *nxt_next = nxt + (i + 1) * m;
            for (int64_t j = 1; j < m; j++) {
                if (D_next[j] != 0.0 && row[j] != 0.0) {
                    double v = D_next[j] * (lam2 * row[j]);
                    nxt_next[j] = v;
                    sum_add(&r->dp_sum, v, &r->status);
                    alive = 1;
                }
            }
            double *t = up; up = row; row = t;
        }
        if (!alive)
            break;
        double *t = dps; dps = nxt; nxt = t;
    }
    r->dps = dps;
    r->nxt = nxt;
    return sum_value(&r->dp_sum);
}

static double delta_ptk(Row *r, int32_t s1, int32_t s2)
{
    const int32_t *a = r->kid_ids + r->kid_off[s1];
    const int32_t *b = r->kid_ids + r->kid_off[s2];
    int64_t n = r->kid_off[s1 + 1] - r->kid_off[s1];
    int64_t m = r->kid_off[s2 + 1] - r->kid_off[s2];
    if (n == 0 || m == 0)
        return r->mu_lam2;
    if (n == 1 && m == 1)       /* the DP's one term is λ²·Δ */
        return r->mu * (r->lam2 + r->lam2 * memo_get(&r->memo, a[0], b[0]));
    if (!reserve(r, n, m)) {
        r->status = NO_MEMORY;
        return 0.0;
    }
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < m; j++)
            r->D[i * m + j] = memo_get(&r->memo, a[i], b[j]);
    r->dp_runs++;
    return r->mu * (r->lam2 + subsequence_sum(r, n, m));
}

static double delta_stk(Row *r, int32_t s1, int32_t s2)
{
    const int32_t *a = r->kid_ids + r->kid_off[s1];
    const int32_t *b = r->kid_ids + r->kid_off[s2];
    int64_t n = r->kid_off[s1 + 1] - r->kid_off[s1];
    int64_t m = r->kid_off[s2 + 1] - r->kid_off[s2];
    double d = r->lam;
    for (int64_t k = 0; k < n && k < m; k++)
        d *= 1.0 + memo_get(&r->memo, a[k], b[k]);
    return d;
}

/* the kernel between the compiled trees t1 (row side) and t2 (column side) */
static double tree_pair(Row *r, const int32_t *t1, const int32_t *t2)
{
    int32_t n1 = t1[0];
    const int32_t *ids1 = t1 + 2, *counts1 = ids1 + n1;
    int32_t n2 = t2[0], k2 = t2[1];
    const int32_t *keys2 = t2 + 2 + 2 * (int64_t)n2, *ends2 = keys2 + k2;
    int32_t m2 = k2 ? ends2[k2 - 1] : 0;
    const int32_t *bids2 = ends2 + k2, *bcounts2 = bids2 + m2;
    const int32_t *key_of = r->ptk ? r->labels : r->prods;

    sum_reset(&r->pair_sum);
    for (int32_t i = 0; i < n1 && r->status == OK; i++) {
        int32_t s1 = ids1[i], key = key_of[s1];
        if (key < 0)
            continue;
        int32_t lo = 0, hi = k2;       /* the bucket of key in t2 */
        while (lo < hi) {
            int32_t mid = lo + (hi - lo) / 2;
            if (keys2[mid] < key)
                lo = mid + 1;
            else
                hi = mid;
        }
        if (lo == k2 || keys2[lo] != key)
            continue;
        int64_t c1 = counts1[i];
        for (int32_t q = lo ? ends2[lo - 1] : 0; q < ends2[lo]; q++) {
            int32_t s2 = bids2[q];
            uint64_t mk = memo_key(s1, s2);
            size_t slot = memo_slot(&r->memo, mk);
            double d;
            if (r->memo.keys[slot] == mk) {
                d = r->memo.vals[slot];
            } else {
                d = r->ptk ? delta_ptk(r, s1, s2) : delta_stk(r, s1, s2);
                if (!memo_put(&r->memo, mk, d))
                    r->status = NO_MEMORY;
            }
            /* d·c as one term d·2^b per set bit b of c: exact, so the
             * exactly rounded sum is that of c copies of d */
            int64_t c = c1 * bcounts2[q];
            for (int b = 0; c != 0 && r->status == OK; b++, c >>= 1) {
                if (!(c & 1))
                    continue;
                double t = ldexp(d, b);
                if (isinf(t) && isfinite(d))
                    r->status = OVERFLOW;   /* the copies' sum overflows */
                else
                    sum_add(&r->pair_sum, t, &r->status);
            }
        }
    }
    return sum_value(&r->pair_sum);
}

/* r set up for one block of tree pairs; 0 when memory runs out */
static int row_init(Row *r, int kind, double lam, double mu,
                    const int32_t *labels, const int32_t *prods,
                    const int32_t *kid_off, const int32_t *kid_ids)
{
    memset(r, 0, sizeof *r);
    r->ptk = kind == 1;
    r->lam = lam;
    r->mu = mu;
    r->lam2 = lam * lam;
    r->mu_lam2 = mu * lam * lam;    /* a childless node: (μλ)λ */
    r->labels = labels;
    r->prods = prods;
    r->kid_off = kid_off;
    r->kid_ids = kid_ids;
    return memo_init(&r->memo, 10);
}

/* work[0] receives the number of Δ values computed, work[1] the number of
 * child-block DP runs; r's buffers are freed */
static void row_free(Row *r, int64_t *work)
{
    work[0] = r->memo.len;
    work[1] = r->dp_runs;
    free(r->memo.keys);
    free(r->memo.vals);
    free(r->pair_sum.p);
    free(r->dp_sum.p);
    free(r->D);
    free(r->dps);
    free(r->nxt);
    free(r->up);
    free(r->row);
}

/* Fill out[j*ntrees + t] with the kernel between the row's tree t, at
 * forest offset row[t], and column j's tree t, at cols[j*ntrees + t], for
 * j < ncols. kind 1 is PTK (λ, μ), 0 is STK (λ). work gets the block's work
 * counts (row_free). Returns OK, or NO_MEMORY or OVERFLOW (a sum overflowed;
 * out is then incomplete). */
int qrerank_tree_block(int kind, double lam, double mu,
                       const int32_t *labels, const int32_t *prods,
                       const int32_t *kid_off, const int32_t *kid_ids,
                       const int32_t *forest, int ntrees, const int64_t *row,
                       int64_t ncols, const int64_t *cols, double *out,
                       int64_t *work)
{
    Row r;
    if (!row_init(&r, kind, lam, mu, labels, prods, kid_off, kid_ids))
        return NO_MEMORY;
    for (int64_t j = 0; j < ncols && r.status == OK; j++)
        for (int t = 0; t < ntrees && r.status == OK; t++)
            out[j * ntrees + t] = tree_pair(&r, forest + row[t],
                                            forest + cols[j * ntrees + t]);
    row_free(&r, work);
    return r.status;
}

/* ------------------------------------------------------------------------
 * one row of a combined kernel matrix: qrerank.kernels._row
 *
 * A cell is ((0.0 + sim) + (t0 + t1)) + rank, each enabled block added in
 * that order, every sum taken left to right (the library is compiled with
 * -ffp-contract=off, so no product is fused into it):
 *
 *   sim    LINEAR: Σ_k u_k·x_k; RBF: exp(-γ·Σ_k (u_k - x_k)²), from 0.0
 *   tree   t_q, the raw tree kernel of the row's tree q against the column's;
 *          normalized, t_q / sqrt(s_q·c_q) over the two self-kernels
 *   rank   LINEAR: r_i·r_j; RBF: exp((-γ·d)·d), d = r_i - r_j
 *
 * exp is libm's, the function CPython's math.exp calls, and sqrt is
 * correctly rounded, so the Python engine's math.exp and math.sqrt give the
 * same bits. Every exponent is <= 0 (γ > 0), so no exp overflows.
 * ---------------------------------------------------------------------- */

enum { BLOCK_OFF = 0, LINEAR = 1, RBF = 2 };

/* the sim block between the row's vector u and a column's x, of dim values */
static double sim_value(int kind, double gamma, int64_t dim, const double *u,
                        const double *x)
{
    double s = 0.0;
    if (kind == LINEAR) {
        for (int64_t k = 0; k < dim; k++)
            s += u[k] * x[k];
        return s;
    }
    for (int64_t k = 0; k < dim; k++) {
        double d = u[k] - x[k];
        s += d * d;
    }
    return exp(-gamma * s);
}

/* Fill out[0 .. ncols) with row i of a combined kernel matrix against the
 * first ncols columns. sim and rank are BLOCK_OFF, LINEAR or RBF; tree is
 * -1 (off), 0 (STK) or 1 (PTK). The rows' and the columns' blocks are
 * row-major: row_X and col_X hold dim values per example, row_at and
 * col_at two forest offsets, row_selfs and col_selfs their two
 * self-kernels (read only to normalize, and the row's for the diagonal),
 * row_r and col_r the rank feature. With diagonal, as in a
 * Gram row, the last column is example i itself and takes the row's
 * self-kernels as its raw tree kernels. work gets the tree pairs' work counts
 * (row_free), zeros without the tree block.
 *
 * Returns the index of the first non-finite cell, ncols when every cell is
 * finite, or minus the status that stopped the row (out is then
 * incomplete): -NO_MEMORY, -OVERFLOW (a tree kernel's sum overflowed) or
 * -DEGENERATE (a self-kernel to normalize by is <= 0). */
int64_t qrerank_kernel_row(int64_t i, int64_t ncols, int diagonal,
                           double *out, int64_t *work, int sim,
                           double sim_gamma, int64_t dim,
                           const double *row_X, const double *col_X,
                           int tree, double lam, double mu,
                           const int32_t *labels, const int32_t *prods,
                           const int32_t *kid_off, const int32_t *kid_ids,
                           const int32_t *forest, const int64_t *row_at,
                           const int64_t *col_at, int normalize,
                           const double *row_selfs, const double *col_selfs,
                           int rank, double rank_gamma, const double *row_r,
                           const double *col_r)
{
    Row r;
    memset(&r, 0, sizeof r);
    if (tree >= 0 &&
        !row_init(&r, tree, lam, mu, labels, prods, kid_off, kid_ids))
        return -NO_MEMORY;
    int64_t first_bad = ncols, m = ncols - (diagonal != 0);
    for (int64_t j = 0; j < ncols && r.status == OK; j++) {
        double v = 0.0;
        if (sim != BLOCK_OFF)
            v += sim_value(sim, sim_gamma, dim, row_X + i * dim,
                           col_X + j * dim);
        if (tree >= 0) {
            double t[2];
            for (int q = 0; q < 2 && r.status == OK; q++) {
                t[q] = j < m ? tree_pair(&r, forest + row_at[2 * i + q],
                                         forest + col_at[2 * j + q])
                             : row_selfs[2 * i + q];
                if (normalize) {
                    double s = row_selfs[2 * i + q], c = col_selfs[2 * j + q];
                    if (s <= 0.0 || c <= 0.0)
                        r.status = DEGENERATE;  /* normalize_kernel raises */
                    else
                        t[q] = t[q] / sqrt(s * c);
                }
            }
            v += t[0] + t[1];
        }
        if (rank == LINEAR) {
            v += row_r[i] * col_r[j];
        } else if (rank == RBF) {
            double d = row_r[i] - col_r[j];
            v += exp((-rank_gamma * d) * d);
        }
        out[j] = v;
        if (first_bad == ncols && !isfinite(v))
            first_bad = j;
    }
    if (tree >= 0)
        row_free(&r, work);
    else
        work[0] = work[1] = 0;
    return r.status == OK ? first_bad : -r.status;
}

/* ------------------------------------------------------------------------
 * the SMO step of qrerank.svm.train_smo
 *
 * qrerank_all_finite checks the triangle before the solve, and
 * qrerank_smo_step runs one step of svm._python_engine's step on the
 * solve's arrays, with the same operations in the same order: second-order
 * working-set selection (Fan, Chen & Lin, JMLR 2005) over F_t = y_t - g_t,
 * then try_pair with Python's min and max (the second argument only when
 * strictly beyond the first) and the update (g + a·G[i]) + b·G[j]. The
 * library is compiled with -ffp-contract=off, so no multiply-add is fused.
 *
 * G is read as the packed lower triangle T that train_smo takes: row i
 * starts at i(i+1)/2, so G_ik is T[i(i+1)/2 + k] for k <= i, a contiguous
 * run up to the diagonal, and T[k(k+1)/2 + i] for k > i, down column i at a
 * stride of k + 1 from cell (k, i) to cell (k + 1, i).
 * ---------------------------------------------------------------------- */

enum { SMO_STEPPED = 0, SMO_CONVERGED = 1, SMO_STALLED = 2,
       SMO_NONFINITE = 3 };

/* the curvature that stands in for a_ij <= 0, as in LIBSVM */
static const double SMO_TAU = 1e-12;

static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* the offset of G_ik in T */
static int64_t cell(int64_t i, int64_t k)
{
    return k <= i ? i * (i + 1) / 2 + k : k * (k + 1) / 2 + i;
}

/* from the offset p of G_ik, that of G_i(k+1) */
static int64_t next_cell(int64_t p, int64_t i, int64_t k)
{
    return p + (k < i ? 1 : k + 1);
}

/* a_ij = G_ii + G_jj - 2 G_ij, or SMO_TAU where that is not positive; G_ij
 * is T[p] */
static double curvature(const double *T, int64_t i, int64_t j, int64_t p)
{
    double a = T[cell(i, i)] + T[cell(j, j)] - 2.0 * T[p];
    return a <= 0.0 ? SMO_TAU : a;
}

/* try_pair: optimize (α_i, α_j) analytically; 1 on real progress, with
 * the pair's gain in the dual objective in *gain */
static int try_pair(int64_t n, const double *T, const double *y,
                    const double *box, double *alpha, double *g, double eps,
                    int64_t i, int64_t j, double *gain)
{
    double eta = curvature(T, i, j, cell(i, j));
    double sgn = y[i] * y[j], L, H;
    if (sgn < 0) {
        L = py_max(0.0, alpha[j] - alpha[i]);
        H = py_min(box[j], box[i] + alpha[j] - alpha[i]);
    } else {
        L = py_max(0.0, alpha[i] + alpha[j] - box[i]);
        H = py_min(box[j], alpha[i] + alpha[j]);
    }
    if (H - L < eps)
        return 0;
    double E_i = g[i] - y[i], E_j = g[j] - y[j];
    double aj_new = alpha[j] + y[j] * (E_i - E_j) / eta;
    aj_new = py_min(py_max(aj_new, L), H);
    double d_j = aj_new - alpha[j];
    if (fabs(d_j) < eps)
        return 0;
    double ai_new = alpha[i] + sgn * (alpha[j] - aj_new);
    ai_new = py_min(py_max(ai_new, 0.0), box[i]);
    double d_i = ai_new - alpha[i];
    double a = d_i * y[i], b = d_j * y[j];
    /* W(α + Δ) - W(α) = Σ Δ - Σ_k Δ_k y_k g_k - ½ Δ'QΔ, with Q_kl =
     * y_k y_l G_kl: O(1) from the old g_i and g_j */
    *gain = (d_i + d_j) - (a * g[i] + b * g[j])
            - 0.5 * (a * a * T[cell(i, i)] + 2.0 * a * b * T[cell(i, j)]
                     + b * b * T[cell(j, j)]);
    /* row i and row j: contiguous up to their diagonals, strided below */
    for (int64_t k = 0, pi = cell(i, 0), pj = cell(j, 0); k < n;
         pi = next_cell(pi, i, k), pj = next_cell(pj, j, k), k++)
        g[k] = g[k] + a * T[pi] + b * T[pj];
    alpha[i] = ai_new;
    alpha[j] = aj_new;
    return 1;
}

/* 1 when each of the n values of x is finite, else 0: train_smo's check of
 * the triangle, read once, where svm._finite sums it */
int qrerank_all_finite(int64_t n, const double *x)
{
    for (int64_t k = 0; k < n; k++)
        if (!isfinite(x[k]))
            return 0;
    return 1;
}

/* One step over the Gram's packed lower triangle T, labels y, boxes box and
 * the iterate alpha, g (updated in place). I_up holds the examples whose α
 * can move to raise y·α, I_low those that can lower it. i is the first
 * index maximizing F over I_up (m), M the minimum of F over I_low; j the
 * first index of I_low with F_j < m minimizing -(m - F_j)^2 / a_ij. Returns
 * SMO_CONVERGED when m - M <= tol, SMO_STEPPED (with the pair's gain in
 * the dual objective in *gain), SMO_STALLED (the pair does not move by eps)
 * or SMO_NONFINITE (an F or a selection value is not a number, or F is
 * infinite). */
int qrerank_smo_step(int64_t n, const double *T, const double *y,
                     const double *box, double *alpha, double *g,
                     double tol, double eps, double *gain)
{
    double m = -INFINITY, M = INFINITY;
    int64_t i = -1;
    for (int64_t k = 0; k < n; k++) {
        double F = y[k] - g[k];
        if (!isfinite(F))
            return SMO_NONFINITE;
        int grow = alpha[k] < box[k] - eps, shrink = alpha[k] > eps;
        if ((y[k] > 0 ? grow : shrink) && F > m) {
            m = F;
            i = k;
        }
        if ((y[k] > 0 ? shrink : grow) && F < M)
            M = F;
    }
    if (m - M <= tol)
        return SMO_CONVERGED;

    double best = INFINITY;
    int64_t j = -1;
    for (int64_t k = 0, p = cell(i, 0); k < n; p = next_cell(p, i, k), k++) {
        double F = y[k] - g[k];
        int low = y[k] > 0 ? alpha[k] > eps : alpha[k] < box[k] - eps;
        if (!low || !(F < m))
            continue;
        double b = m - F, obj = -(b * b) / curvature(T, i, k, p);
        if (isnan(obj))
            return SMO_NONFINITE;
        if (obj < best) {
            best = obj;
            j = k;
        }
    }
    return try_pair(n, T, y, box, alpha, g, eps, i, j, gain) ? SMO_STEPPED
                                                             : SMO_STALLED;
}

/* ------------------------------------------------------------------------
 * the text similarities of qrerank.features.similarity_vector
 *
 * qrerank_similarity takes the two texts as token ids (equal ids, equal
 * tokens) and, for each n-gram order n = 1..4, fills the ten integers that
 * the five measures are computed from, in the order of
 * features._python_counts: the GST tiled length, the LCS length, |A∩B|,
 * |A∪B| and |A| over the distinct n-grams, the cosine dot product, the two
 * sums of squared counts and the two n-gram counts. features._measures
 * makes the floats from these for both engines, so they agree bit for bit.
 *
 * Each order's n-grams are interned to dense ids: the id of the n-gram at
 * i is that of the pair (id of the (n-1)-gram at i, token at i+n-1), so two
 * n-grams share an id exactly when their token windows are equal. LCS is
 * features._lcs_length(a, b)'s bit-parallel algorithm on 64-bit words: the
 * match masks are over the first text's positions, and the second text's
 * n-grams update the row. GST is
 * features._gst_tiled_length: each greedy round visits the equal, unmarked
 * (i, j) pairs in the row-major order of the full |a|×|b| scan, through an
 * index of b's positions per id, so it takes the same tiles.
 * ---------------------------------------------------------------------- */

enum { SIM_ORDERS = 4, SIM_COUNTS = 10 };

typedef struct {
    int32_t *ga, *gb;           /* the current order's n-gram ids */
    uint64_t *keys;             /* intern table: (prefix id, token) ... */
    int32_t *vals;              /* ... -> id; -1 marks an empty slot */
    int64_t cap;                /* table slots, a power of two */
    int32_t *cnt_a, *cnt_b;     /* occurrences of each id */
    int32_t *slot;              /* id -> its LCS mask, -1 if none */
    int32_t *off, *pos_b;       /* b's positions of id g: pos_b[off[g] ..
                                   off[g] + cnt_b[g]), ascending */
    int32_t *run[2], *row[2];   /* GST: the run ending at (i, j) is
                                   run[i & 1][j] if row[i & 1][j] == i */
    char *marked_a, *marked_b;  /* GST tiles */
    int64_t *ends;              /* GST: the round's (i, j) tile ends */
    int64_t ends_cap;
} Sim;

/* the id of (prefix, token); a new id, *next, if it is not in the table */
static int32_t intern_gram(Sim *s, int32_t prefix, int32_t token,
                           int32_t *next)
{
    uint64_t key = (uint64_t)(uint32_t)prefix << 32 | (uint32_t)token;
    size_t mask = (size_t)s->cap - 1;
    size_t i = (size_t)((key * 0x9E3779B97F4A7C15ULL) >> 20) & mask;
    while (s->vals[i] >= 0) {
        if (s->keys[i] == key)
            return s->vals[i];
        i = (i + 1) & mask;
    }
    s->keys[i] = key;
    return s->vals[i] = (*next)++;
}

/* the ids of order n from those of order n - 1 (n = 1: from the tokens);
 * returns the number of distinct ids */
static int32_t intern_order(Sim *s, int n, const int32_t *a, int64_t la,
                            const int32_t *b, int64_t lb)
{
    int32_t next = 0;
    memset(s->vals, 0xff, (size_t)s->cap * sizeof *s->vals);
    for (int64_t i = 0; i + n <= la; i++)
        s->ga[i] = intern_gram(s, n == 1 ? 0 : s->ga[i], a[i + n - 1], &next);
    for (int64_t j = 0; j + n <= lb; j++)
        s->gb[j] = intern_gram(s, n == 1 ? 0 : s->gb[j], b[j + n - 1], &next);
    return next;
}

/* out[2..7], the set and cosine counts of the k ids of la and lb n-grams;
 * also fills cnt_a, cnt_b, off and pos_b */
static void gram_counts(Sim *s, int32_t k, int64_t la, int64_t lb,
                        int64_t *out)
{
    memset(s->cnt_a, 0, (size_t)k * sizeof *s->cnt_a);
    memset(s->cnt_b, 0, (size_t)k * sizeof *s->cnt_b);
    for (int64_t i = 0; i < la; i++)
        s->cnt_a[s->ga[i]]++;
    for (int64_t j = 0; j < lb; j++)
        s->cnt_b[s->gb[j]]++;
    int64_t inter = 0, size_a = 0, size_b = 0, dot = 0, sq_a = 0, sq_b = 0;
    int32_t end = 0;
    for (int32_t g = 0; g < k; g++) {
        int64_t ca = s->cnt_a[g], cb = s->cnt_b[g];
        size_a += ca > 0;
        size_b += cb > 0;
        inter += ca > 0 && cb > 0;
        dot += ca * cb;
        sq_a += ca * ca;
        sq_b += cb * cb;
        s->off[g] = end += s->cnt_b[g];
    }
    for (int64_t j = lb - 1; j >= 0; j--)
        s->pos_b[--s->off[s->gb[j]]] = (int32_t)j;
    out[2] = inter;
    out[3] = size_a + size_b - inter;
    out[4] = size_a;
    out[5] = dot;
    out[6] = sq_a;
    out[7] = sq_b;
}

/* features._lcs_length(a, b), with a's match masks kept only for the ids b
 * holds: v has a zero bit where the DP row steps up, and
 * each step is v = ((v + u) | (v - u)) & full with u = v & m, where v - u =
 * v & ~m, u's bits being a subset of v's. -1 when memory runs out. */
static int64_t lcs_length(Sim *s, int32_t k, int64_t la, int64_t lb)
{
    int64_t words = (la + 63) / 64, d = 0;
    for (int32_t g = 0; g < k; g++)
        s->slot[g] = s->cnt_a[g] && s->cnt_b[g] ? (int32_t)d++ : -1;
    uint64_t *masks = calloc((size_t)(d * words + words + 1), sizeof *masks);
    if (!masks)
        return -1;
    uint64_t *v = masks + d * words;
    for (int64_t i = 0; i < la; i++)
        if (s->slot[s->ga[i]] >= 0)
            masks[s->slot[s->ga[i]] * words + i / 64] |= 1ULL << (i % 64);
    uint64_t top = la % 64 ? (1ULL << (la % 64)) - 1 : ~0ULL;
    for (int64_t w = 0; w < words; w++)
        v[w] = w == words - 1 ? top : ~0ULL;
    for (int64_t j = 0; j < lb; j++) {
        int32_t at = s->slot[s->gb[j]];
        if (at < 0)
            continue;
        const uint64_t *m = masks + at * words;
        uint64_t carry = 0;
        for (int64_t w = 0; w < words; w++) {
            uint64_t x = v[w], t = x + (x & m[w]), sum = t + carry;
            carry = (t < x) | (sum < t);
            v[w] = sum | (x & ~m[w]);
        }
        if (words)
            v[words - 1] &= top;
    }
    int64_t zeros = la;
    for (int64_t w = 0; w < words; w++)
        zeros -= __builtin_popcountll(v[w]);
    free(masks);
    return zeros;
}

static int any_marked(const char *marked, int64_t from, int64_t to)
{
    for (int64_t p = from; p <= to; p++)
        if (marked[p])
            return 1;
    return 0;
}

/* features._gst_tiled_length of the la and lb n-grams; -1 when memory
 * runs out */
static int64_t gst_length(Sim *s, int64_t la, int64_t lb, int64_t min_match)
{
    memset(s->marked_a, 0, (size_t)la);
    memset(s->marked_b, 0, (size_t)lb);
    int64_t tiled = 0;
    for (;;) {
        int32_t best = 0;
        int64_t nends = 0;
        for (int64_t j = 0; j < lb; j++)
            s->row[0][j] = s->row[1][j] = -2;
        for (int64_t i = 0; i < la; i++) {
            if (s->marked_a[i])
                continue;
            int32_t g = s->ga[i];
            int32_t *run = s->run[i & 1], *row = s->row[i & 1];
            const int32_t *prun = s->run[!(i & 1)], *prow = s->row[!(i & 1)];
            for (int32_t p = s->off[g]; p < s->off[g] + s->cnt_b[g]; p++) {
                int32_t j = s->pos_b[p];
                if (s->marked_b[j])
                    continue;
                int32_t r = j && prow[j - 1] == i - 1 ? prun[j - 1] + 1 : 1;
                run[j] = r;
                row[j] = (int32_t)i;
                if (r < best)
                    continue;
                if (r > best) {
                    best = r;
                    nends = 0;
                }
                if (nends == s->ends_cap) {
                    int64_t *e = realloc(s->ends, (size_t)s->ends_cap * 4 *
                                         sizeof *e);
                    if (!e)
                        return -1;
                    s->ends = e;
                    s->ends_cap *= 2;
                }
                s->ends[2 * nends] = i;
                s->ends[2 * nends + 1] = j;
                nends++;
            }
        }
        if (best == 0 || best < min_match)
            return tiled;
        for (int64_t e = 0; e < nends; e++) {
            int64_t i = s->ends[2 * e], j = s->ends[2 * e + 1];
            int64_t si = i + 1 - best, sj = j + 1 - best;
            if (any_marked(s->marked_a, si, i) ||
                any_marked(s->marked_b, sj, j))
                continue;
            memset(s->marked_a + si, 1, (size_t)best);
            memset(s->marked_b + sj, 1, (size_t)best);
            tiled += best;
        }
    }
}

/* Fill counts[10·(n-1) .. 10·n), for n = 1..4, from the token ids
 * a[0..la) and b[0..lb). Returns OK, or NO_MEMORY (counts is then
 * incomplete). */
int qrerank_similarity(const int32_t *a, int64_t la, const int32_t *b,
                       int64_t lb, int64_t min_match, int64_t *counts)
{
    if (la < 0 || lb < 0 || la + lb >= INT32_MAX / 2)
        return NO_MEMORY;
    int64_t n = la + lb + 1;
    Sim s = {0};
    s.cap = 16;
    while (s.cap < 2 * n)
        s.cap *= 2;
    s.ends_cap = 64;
    /* eleven int32 arrays of n, then the table's ids */
    int32_t *ints = malloc((size_t)(11 * n + s.cap) * sizeof *ints);
    s.keys = malloc((size_t)s.cap * sizeof *s.keys);
    s.marked_a = malloc((size_t)(2 * n));
    s.ends = malloc((size_t)s.ends_cap * 2 * sizeof *s.ends);
    int status = ints && s.keys && s.marked_a && s.ends ? OK : NO_MEMORY;
    if (status == OK) {
        int32_t **arrays[] = {&s.ga, &s.gb, &s.cnt_a, &s.cnt_b, &s.slot,
                              &s.off, &s.pos_b, &s.run[0], &s.run[1],
                              &s.row[0], &s.row[1], &s.vals};
        for (int k = 0; k < 12; k++)
            *arrays[k] = ints + k * n;
        s.marked_b = s.marked_a + n;
    }
    for (int order = 1; order <= SIM_ORDERS && status == OK; order++) {
        int64_t *out = counts + SIM_COUNTS * (order - 1);
        int64_t na = la >= order ? la - order + 1 : 0;
        int64_t nb = lb >= order ? lb - order + 1 : 0;
        int32_t k = intern_order(&s, order, a, la, b, lb);
        gram_counts(&s, k, na, nb, out);
        out[0] = gst_length(&s, na, nb, min_match);
        out[1] = lcs_length(&s, k, na, nb);
        out[8] = na;
        out[9] = nb;
        if (out[0] < 0 || out[1] < 0)
            status = NO_MEMORY;
    }
    free(ints);
    free(s.keys);
    free(s.marked_a);
    free(s.ends);
    return status;
}
