/* Native engine of qrerank: the tree kernels of qrerank.kernels, then the
 * SMO step of qrerank.svm, then the RBF exponentials and the Gram file
 * writer of qrerank.kernels.
 *
 * The tree-kernel entry point, qrerank_tree_block, evaluates one Gram or
 * scoring row's tree block: each of the row's trees against the
 * same-position tree of every column, PTK or STK, raw (unnormalized). It
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
 * Every value is bit-identical to the Python engine (kernels._ptk, _stk and
 * _subsequence_sum): each Δ is evaluated with the same operations in the same
 * order, and every sum is exactly rounded, as math.fsum is. The library must
 * be compiled with -ffp-contract=off and without -ffast-math, so that no
 * multiply-add is fused and no operation reassociated.
 *
 * A Δ memo keyed by (row subtree, column subtree) serves all the row's tree
 * pairs and is dropped when the call returns. Each tree pair walks the row
 * tree's subtree ids in ascending order; a child's id is smaller than its
 * parent's, so every matched child pair is in the memo before its parent
 * reads it, and a memo miss means the labels (STK: productions) differ. No
 * recursion: any depth works. DP buffers grow to the largest child block met.
 */

#include <locale.h>
#include <math.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>

enum { OK = 0, NO_MEMORY = 1, OVERFLOW = 2 };

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

/* Fill out[j*ntrees + t] with the kernel between the row's tree t, at
 * forest offset row[t], and column j's tree t, at cols[j*ntrees + t], for
 * j < ncols. kind 1 is PTK (λ, μ), 0 is STK (λ). work[0] receives the
 * number of Δ values computed, work[1] the number of child-block DP runs.
 * Returns 0, or nonzero when memory ran out or a sum overflowed (out is
 * then incomplete). */
int qrerank_tree_block(int kind, double lam, double mu,
                       const int32_t *labels, const int32_t *prods,
                       const int32_t *kid_off, const int32_t *kid_ids,
                       const int32_t *forest, int ntrees, const int64_t *row,
                       int64_t ncols, const int64_t *cols, double *out,
                       int64_t *work)
{
    Row r;
    memset(&r, 0, sizeof r);
    r.ptk = kind == 1;
    r.lam = lam;
    r.mu = mu;
    r.lam2 = lam * lam;
    r.mu_lam2 = mu * lam * lam;     /* a childless node: (μλ)λ */
    r.labels = labels;
    r.prods = prods;
    r.kid_off = kid_off;
    r.kid_ids = kid_ids;
    if (!memo_init(&r.memo, 10))
        return NO_MEMORY;
    for (int64_t j = 0; j < ncols && r.status == OK; j++)
        for (int t = 0; t < ntrees && r.status == OK; t++)
            out[j * ntrees + t] = tree_pair(&r, forest + row[t],
                                            forest + cols[j * ntrees + t]);
    work[0] = r.memo.len;
    work[1] = r.dp_runs;
    free(r.memo.keys);
    free(r.memo.vals);
    free(r.pair_sum.p);
    free(r.dp_sum.p);
    free(r.D);
    free(r.dps);
    free(r.nxt);
    free(r.up);
    free(r.row);
    return r.status;
}

/* ------------------------------------------------------------------------
 * the SMO step of qrerank.svm.train_smo
 *
 * qrerank_smo_step runs one step of train_smo's Python reference (its
 * nested function python_step) on the solve's arrays, with the same
 * operations in the same order: the violations of _violations and their
 * maximum with numpy's NaN rule, the seeded tie-picks, the stable order of
 * the violators, the shuffled partner scan and try_pair, Python's min and
 * max (the second argument only when strictly beyond the first), and the
 * update (g + a·G[i]) + b·G[j]. The bias stays in Python: its mean is
 * numpy's pairwise sum. The library is compiled with -ffp-contract=off, so
 * no multiply-add is fused.
 * ---------------------------------------------------------------------- */

/* random.Random: CPython's MT19937. mt[0..623] are the words and mt[624]
 * the index, the layout of random.getstate()[1]. */
enum { MT_N = 624, MT_M = 397 };

static uint32_t mt_word(uint32_t *mt)
{
    static const uint32_t mag01[2] = {0x0U, 0x9908b0dfU};
    uint32_t y;
    if (mt[MT_N] >= MT_N) {
        int k;
        for (k = 0; k < MT_N - MT_M; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; k < MT_N - 1; k++) {
            y = (mt[k] & 0x80000000U) | (mt[k + 1] & 0x7fffffffU);
            mt[k] = mt[k + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (mt[MT_N - 1] & 0x80000000U) | (mt[0] & 0x7fffffffU);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        mt[MT_N] = 0;
    }
    y = mt[mt[MT_N]++];
    y ^= y >> 11;
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= y >> 18;
    return y;
}

/* Random._randbelow(n) for 1 <= n < 2^32, which randrange(n) calls: the top
 * k bits of a word, k the bit length of n, drawn again while >= n */
static int64_t randbelow(uint32_t *mt, int64_t n)
{
    int k = 64 - __builtin_clzll((unsigned long long)n);
    uint32_t r;
    do
        r = mt_word(mt) >> (32 - k);
    while (r >= n);
    return r;
}

/* count draws of randbelow(n) into out: the generator's test hook */
void qrerank_randbelow(uint32_t *mt, int64_t n, int64_t count, int64_t *out)
{
    for (int64_t q = 0; q < count; q++)
        out[q] = randbelow(mt, n);
}

enum { SMO_STEPPED = 0, SMO_CONVERGED = 1, SMO_STALLED = 2,
       SMO_NONFINITE = 3 };

typedef struct {
    int64_t n;
    const double *G, *y, *box;
    double *alpha, *g;
    double eps;
} Smo;

typedef struct {
    double v;
    int64_t k;
} Violator;

static double py_max(double a, double b) { return b > a ? b : a; }
static double py_min(double a, double b) { return b < a ? b : a; }

/* np.maximum: NaN when either side is NaN */
static double np_maximum(double a, double b)
{
    return isnan(a) || a >= b ? a : b;
}

/* the values' maximum, NaN when any is NaN (ndarray.max) */
static double np_max(const double *v, int64_t n)
{
    double m = v[0];
    for (int64_t k = 0; k < n; k++) {
        if (isnan(v[k]))
            return v[k];
        if (v[k] > m)
            m = v[k];
    }
    return m;
}

/* tie_pick: a seeded choice among the indices whose value equals target */
static int64_t tie_pick(uint32_t *mt, const double *v, int64_t n,
                        double target)
{
    int64_t count = 0;
    for (int64_t k = 0; k < n; k++)
        count += v[k] == target;
    int64_t r = randbelow(mt, count);
    for (int64_t k = 0;; k++)
        if (v[k] == target && r-- == 0)
            return k;
}

/* decreasing violation, then increasing index: a stable argsort of -viol */
static int by_violation(const void *pa, const void *pb)
{
    const Violator *a = pa, *b = pb;
    if (a->v != b->v)
        return a->v > b->v ? -1 : 1;
    return (a->k > b->k) - (a->k < b->k);
}

/* try_pair: optimize (α_i, α_j) analytically; 1 on real progress */
static int try_pair(const Smo *s, int64_t i, int64_t j)
{
    if (i == j)
        return 0;
    const double *Gi = s->G + i * s->n, *Gj = s->G + j * s->n;
    const double *y = s->y, *box = s->box;
    double *alpha = s->alpha, *g = s->g;
    double eta = Gi[i] + Gj[j] - 2.0 * Gi[j];
    if (eta <= 0.0)
        return 0;
    double sgn = y[i] * y[j], L, H;
    if (sgn < 0) {
        L = py_max(0.0, alpha[j] - alpha[i]);
        H = py_min(box[j], box[i] + alpha[j] - alpha[i]);
    } else {
        L = py_max(0.0, alpha[i] + alpha[j] - box[i]);
        H = py_min(box[j], alpha[i] + alpha[j]);
    }
    if (H - L < s->eps)
        return 0;
    double E_i = g[i] - y[i], E_j = g[j] - y[j];
    double aj_new = alpha[j] + y[j] * (E_i - E_j) / eta;
    aj_new = py_min(py_max(aj_new, L), H);
    double d_j = aj_new - alpha[j];
    if (fabs(d_j) < s->eps)
        return 0;
    double ai_new = alpha[i] + sgn * (alpha[j] - aj_new);
    ai_new = py_min(py_max(ai_new, 0.0), box[i]);
    double d_i = ai_new - alpha[i];
    double a = d_i * y[i], b = d_j * y[j];
    for (int64_t k = 0; k < s->n; k++)
        g[k] = g[k] + a * Gi[k] + b * Gj[k];
    alpha[i] = ai_new;
    alpha[j] = aj_new;
    return 1;
}

/* One step at bias b over the n×n Gram G (row-major, symmetric), labels y,
 * boxes box and the iterate alpha, g (updated in place), drawing from the
 * generator mt. viol and gaps (n doubles), violators and others (n each)
 * are scratch. *worst receives the maximum violation, *scanned 1 when a
 * partner was searched for in shuffled order. Returns SMO_STEPPED,
 * SMO_CONVERGED, SMO_STALLED (no pair makes progress) or SMO_NONFINITE (a
 * maximum is NaN, where the Python reference finds no tie to pick). */
int qrerank_smo_step(int64_t n, const double *G, const double *y,
                     const double *box, double *alpha, double *g, double b,
                     double tol, double eps, uint32_t *mt, double *viol,
                     double *gaps, Violator *violators, int64_t *others,
                     double *worst, int64_t *scanned)
{
    Smo s = {n, G, y, box, alpha, g, eps};
    *scanned = 0;
    for (int64_t k = 0; k < n; k++) {
        double r = y[k] * (g[k] + b) - 1.0, v = 0.0;
        if (alpha[k] < box[k] - eps)
            v = np_maximum(v, -r - tol);
        if (alpha[k] > eps)
            v = np_maximum(v, r - tol);
        viol[k] = np_maximum(v, 0.0);
    }
    *worst = np_max(viol, n);
    if (isnan(*worst))
        return SMO_NONFINITE;
    if (*worst <= 0.0)
        return SMO_CONVERGED;

    /* the worst violator the seed picks, then every violator in order of
     * decreasing violation (built when the first one finds no partner) */
    int64_t i = tie_pick(mt, viol, n, *worst), nviol = -1;
    for (int64_t q = -1; q < nviol || nviol < 0; q++) {
        if (q >= 0) {
            if (nviol < 0) {
                nviol = 0;
                for (int64_t k = 0; k < n; k++)
                    if (viol[k] > 0.0)
                        violators[nviol++] = (Violator){viol[k], k};
                qsort(violators, (size_t)nviol, sizeof *violators,
                      by_violation);
                if (q >= nviol)
                    break;
            }
            i = violators[q].k;
        }
        double E_i = g[i] - y[i];
        for (int64_t k = 0; k < n; k++)
            gaps[k] = fabs(E_i - (g[k] - y[k]));
        double top = np_max(gaps, n);
        if (isnan(top))
            return SMO_NONFINITE;
        int64_t j = tie_pick(mt, gaps, n, top);
        if (try_pair(&s, i, j))
            return SMO_STEPPED;
        /* random.shuffle of the other indices, ascending: Fisher-Yates
         * from the end, then the first partner that makes progress */
        int64_t m = 0;
        for (int64_t k = 0; k < n; k++)
            if (k != i && k != j)
                others[m++] = k;
        for (int64_t p = m - 1; p > 0; p--) {
            int64_t r = randbelow(mt, p + 1), t = others[p];
            others[p] = others[r];
            others[r] = t;
        }
        *scanned = 1;
        for (int64_t p = 0; p < m; p++)
            if (try_pair(&s, i, others[p]))
                return SMO_STEPPED;
    }
    return SMO_STALLED;
}

/* ------------------------------------------------------------------------
 * the RBF exponentials of qrerank.kernels
 *
 * qrerank_exp sets out[k] = exp(x[k]) with libm's exp, the function
 * CPython's math.exp calls, so every value has math.exp's bits.
 * ---------------------------------------------------------------------- */

/* Returns 0, or 1 when some exp(x[k]) overflows a finite x[k], where
 * math.exp raises OverflowError (out is then incomplete). */
int qrerank_exp(int64_t n, const double *x, double *out)
{
    for (int64_t k = 0; k < n; k++) {
        out[k] = exp(x[k]);
        if (isinf(out[k]) && isfinite(x[k]))
            return 1;
    }
    return 0;
}

/* ------------------------------------------------------------------------
 * the Gram file writer of qrerank.kernels.save_gram
 *
 * The writer prints each value as Python's '%.17g' % v does. For
 * 1e-11 <= |v| < 1e17 it is exact integer arithmetic: v = m·2^e with m < 2^53,
 * and with k = floor(log10 |v|) and p = 16 - k (0 <= p <= 27, and 5^27 <
 * 2^63), the 17 significant digits are D = m·5^p·2^(p+e) = |v|·10^p rounded
 * half to even, computed in 128 bits. k is chosen from the floor of that
 * product, not from D: 1e-7 is 9.99999999999999954...e-08 and must print so,
 * not as 1e-07. When the rounding reaches 10^17, D becomes 10^16 and k
 * grows by one. The exponent of %g is that k: fixed notation for -4 <= k <
 * 17, else scientific, trailing zeros and a bare point dropped. Every other
 * value goes through snprintf("%.17g"), which is also exact in glibc but
 * several times slower.
 * ---------------------------------------------------------------------- */

typedef unsigned __int128 u128;

static const uint64_t POW5[28] = {
    1ULL, 5ULL, 25ULL, 125ULL, 625ULL, 3125ULL, 15625ULL, 78125ULL,
    390625ULL, 1953125ULL, 9765625ULL, 48828125ULL, 244140625ULL,
    1220703125ULL, 6103515625ULL, 30517578125ULL, 152587890625ULL,
    762939453125ULL, 3814697265625ULL, 19073486328125ULL, 95367431640625ULL,
    476837158203125ULL, 2384185791015625ULL, 11920928955078125ULL,
    59604644775390625ULL, 298023223876953125ULL, 1490116119384765625ULL,
    7450580596923828125ULL};

#define E16 10000000000000000ULL
#define E17 100000000000000000ULL

/* m·5^p·2^(p+e) rounded down, and whether half-even rounding goes up */
static uint64_t scaled(uint64_t m, int e, int p, int *up)
{
    u128 x = (u128)m * POW5[p];
    int sh = p + e;
    if (sh >= 0) {
        *up = 0;
        return (uint64_t)(x << sh);
    }
    uint64_t q = (uint64_t)(x >> -sh);
    u128 rem = x & (((u128)1 << -sh) - 1), half = (u128)1 << (-sh - 1);
    *up = rem > half || (rem == half && (q & 1));
    return q;
}

/* '%.17g' % v for a finite v into s (room for 32 bytes); returns the
 * length */
static int format_g17(double v, char *s)
{
    uint64_t bits;
    memcpy(&bits, &v, sizeof bits);
    int neg = (int)(bits >> 63), len = 0;
    double a = fabs(v);
    if (a == 0.0) {
        if (neg)
            s[len++] = '-';
        s[len++] = '0';
        return len;
    }
    if (!(a >= 1e-11 && a < 1e17))
        return snprintf(s, 32, "%.17g", v);
    int b = (int)((bits >> 52) & 0x7ff) - 1023;     /* 2^b <= a < 2^(b+1) */
    uint64_t m = (bits & ((1ULL << 52) - 1)) | (1ULL << 52);
    int e = b - 52;
    int k = (b * 78913) >> 18;      /* floor(b·log10 2): k or k + 1 is right */
    if (16 - k > 27)
        return snprintf(s, 32, "%.17g", v);
    int up;
    uint64_t q = scaled(m, e, 16 - k, &up);
    if (q >= E17) {
        k++;
        q = scaled(m, e, 16 - k, &up);
    }
    q += up;
    if (q == E17) {
        q = E16;
        k++;
    }
    char d[17];
    for (int i = 16; i >= 0; i--, q /= 10)
        d[i] = (char)('0' + q % 10);
    int nd = 17;
    while (nd > 1 && d[nd - 1] == '0')
        nd--;
    if (neg)
        s[len++] = '-';
    if (k < -4 || k >= 17) {
        s[len++] = d[0];
        if (nd > 1) {
            s[len++] = '.';
            memcpy(s + len, d + 1, (size_t)nd - 1);
            len += nd - 1;
        }
        int x = k < 0 ? -k : k;
        s[len++] = 'e';
        s[len++] = k < 0 ? '-' : '+';
        if (x >= 100)
            s[len++] = (char)('0' + x / 100);
        s[len++] = (char)('0' + x / 10 % 10);
        s[len++] = (char)('0' + x % 10);
    } else if (k >= 0) {
        memcpy(s + len, d, (size_t)k + 1);
        len += k + 1;
        if (nd > k + 1) {
            s[len++] = '.';
            memcpy(s + len, d + k + 1, (size_t)(nd - k - 1));
            len += nd - k - 1;
        }
    } else {
        s[len++] = '0';
        s[len++] = '.';
        for (int i = 0; i < -k - 1; i++)
            s[len++] = '0';
        memcpy(s + len, d, (size_t)nd);
        len += nd;
    }
    return len;
}

/* Format the cells of the lower triangle of the n×n row-major matrix G
 * from cell (pos[0], pos[1]) on, as save_gram writes them: row i is
 * G[i][0..i], single spaces between the values, '\n' after the last. Stops
 * when the next value might not fit in the cap bytes of buf; pos receives
 * the next cell, (n, 0) at the end. G must be finite. Returns the bytes
 * written, or -1, with nothing written, when the locale's decimal point is
 * not '.' (snprintf would print another). */
int64_t qrerank_format_gram(int64_t n, const double *G, int64_t *pos,
                            char *buf, int64_t cap)
{
    const char *point = localeconv()->decimal_point;
    if (point[0] != '.' || point[1] != '\0')
        return -1;
    int64_t i = pos[0], j = pos[1], len = 0;
    while (i < n && cap - len >= 32) {
        len += format_g17(G[i * n + j], buf + len);
        buf[len++] = j == i ? '\n' : ' ';
        if (++j > i) {
            i++;
            j = 0;
        }
    }
    pos[0] = i;
    pos[1] = j;
    return len;
}
