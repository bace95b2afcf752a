/* Native tree-kernel engine of qrerank.kernels.
 *
 * One entry point, qrerank_tree_block, evaluates one Gram or scoring row's
 * tree block: each of the row's trees against the same-position tree of
 * every column, PTK or STK, raw (unnormalized). It reads the call's subtree
 * table and compiled trees as the flat int32 arrays kernels._Subtrees keeps:
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

#include <math.h>
#include <stdint.h>
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
            for (int64_t c = c1 * bcounts2[q]; c > 0; c--)
                sum_add(&r->pair_sum, d, &r->status);
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
