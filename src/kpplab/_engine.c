/*
 * Compiled segment engine of kpplab's event-driven simulator.
 *
 * Every draw goes through numpy's own distribution functions on the
 * Generator's bitgen_t, in the order in which numpy's vectorized calls make
 * them, and every value is formed with numpy's arithmetic in numpy's order,
 * so a run here is bit for bit the run of the numpy engine that
 * tests/reference_engine.py keeps.  One round of a segment makes these
 * draws, over its n lifelines:
 *
 *   1. standard_exponential(n): the branching waits;
 *   2. standard_normal(n): the Brownian part, scaled by sqrt(duration);
 *   3. poisson(mean) for each mean >= POISSON_INVERSION_LIMIT, in index
 *      order, then random(k) for the k smaller means, each inverted by
 *      sequential search from exp(-mean), which numpy's own float64 exp
 *      loop computes;
 *   4. the jumps, in owner-list order: the large means' jumps lifeline by
 *      lifeline, then inversion pass 1, 2, ... over the lifelines with at
 *      least that many jumps, each pass in index order;
 *   5. the litters of the branching lifelines: random(nb) against the count
 *      law's cdf, as Generator.choice, or nb kernel draws for the displaced
 *      children.
 *
 * A lifeline's jump sum starts at 0.0 and adds its jumps in list order (as
 * numpy's bincount), and is added to the Brownian part only in a round that
 * has jumps at all.  The engine keeps no state between calls: each call
 * allocates its buffers and frees them before it returns.
 */
#include "numpy/random/distributions.h"
#include "numpy/ndarraytypes.h"
#include "numpy/ufuncobject.h"

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <sys/mman.h>

/* Poisson means from here on go to random_poisson; smaller ones are
 * inverted.  random_poisson switches its own algorithm at 10 too: the
 * search takes about `mean` passes, and past about 745 exp(-mean)
 * underflows to 0. */
const double kpp_poisson_inversion_limit = 10.0;
#define POISSON_INVERSION_LIMIT kpp_poisson_inversion_limit

enum family { NONE = -1, GAUSSIAN, TWO_SIDED_EXPONENTIAL, UNIFORM, TABULATED };
enum status { OK = 0, CAPACITY = 1, NO_MEMORY = 2 };

typedef struct {
    int64_t family;
    double param;
    const double *x;   /* tabulated grid */
    const double *cdf; /* its normalized cdf */
    int64_t size;
} kernel_t;

typedef struct {
    int64_t diffusive;
    kernel_t jumps;                  /* family NONE: no jump part */
    PyUFuncGenericFunction exp_loop; /* numpy's float64 inner loop of np.exp */
    void *exp_data;
} motion_t;

typedef struct {
    int64_t litter;        /* one litter size for every parent, or -1 */
    const double *cdf;     /* the count law's normalized cdf when drawn */
    const int64_t *counts; /* and its counts */
    int64_t size;
    kernel_t displacement; /* family NONE: every child at the parent */
} law_t;

typedef struct {
    double *pos;
    int64_t *tag;
    int64_t n;
    int64_t pos_bytes, tag_bytes; /* for kpp_release */
    double time;                  /* CapacityError.time */
    int64_t count;                /* CapacityError.count */
} result_t;

/* -- memory ------------------------------------------------------------------- */

/* Buffers from this size on are mapped directly: freeing one returns its
 * pages at once, and growing one moves no data (mremap, where there is
 * one).  Through malloc, large buffers that grow round after round would
 * leave holes in the heap that add to a later call's peak. */
#define MAP_BYTES ((size_t)1 << 20)

static void *get(size_t bytes)
{
    if (bytes < MAP_BYTES)
        return malloc(bytes > 0 ? bytes : 1);
    void *p = mmap(NULL, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    return p == MAP_FAILED ? NULL : p;
}

static void put(void *p, size_t bytes)
{
    if (p == NULL)
        return;
    if (bytes < MAP_BYTES)
        free(p);
    else
        munmap(p, bytes);
}

/* Make room for `need` items of `size` bytes in *buf, which holds *cap; a
 * grown buffer at least doubles, and `keep` keeps its contents.  Returns 0
 * when out of memory. */
static int grow(void **buf, int64_t *cap, int64_t need, size_t size, int keep)
{
    if (need <= *cap)
        return 1;
    int64_t grown = need > 2 * *cap ? need : 2 * *cap;
    size_t old = (size_t)*cap * size, bytes = (size_t)grown * size;
    void *p;
#ifdef MREMAP_MAYMOVE
    if (keep && old >= MAP_BYTES) {
        p = mremap(*buf, old, bytes, MREMAP_MAYMOVE);
        if (p == MAP_FAILED)
            return 0;
        *buf = p;
        *cap = grown;
        return 1;
    }
#endif
    p = get(bytes);
    if (p == NULL)
        return 0;
    if (keep && old > 0)
        memcpy(p, *buf, old);
    put(*buf, old);
    *buf = p;
    *cap = grown;
    return 1;
}

#define GROW(buf, cap, need, keep) grow((void **)&(buf), &(cap), (need), sizeof *(buf), (keep))
#define PUT(buf, cap) put((buf), (size_t)(cap) * sizeof *(buf))

/* a if pick, else b, without a branch (pick is random half the time) */
static inline double pick_double(int pick, double a, double b)
{
    uint64_t ua, ub, mask = -(uint64_t)pick;
    memcpy(&ua, &a, sizeof ua);
    memcpy(&ub, &b, sizeof ub);
    ua = (ua & mask) | (ub & ~mask);
    memcpy(&a, &ua, sizeof a);
    return a;
}

/* -- kernel draws ------------------------------------------------------------- */

/* np.interp(u, cdf, x): the last j with cdf[j] <= u, and x there on an exact
 * hit or at or past the table's end. */
static double tabulated_inverse(const kernel_t *k, double u)
{
    const double *c = k->cdf, *x = k->x;
    int64_t lo = 0, hi = k->size - 1;
    if (u >= c[hi])
        return x[hi];
    if (u < c[0])
        return x[0];
    while (hi - lo > 1) { /* c[lo] <= u < c[hi] */
        int64_t mid = lo + (hi - lo) / 2;
        if (u >= c[mid])
            lo = mid;
        else
            hi = mid;
    }
    if (c[lo] == u)
        return x[lo];
    double slope = (x[hi] - x[lo]) / (c[hi] - c[lo]);
    double v = slope * (u - c[lo]) + x[lo];
    if (isnan(v)) {
        v = slope * (u - c[hi]) + x[hi];
        if (isnan(v) && x[lo] == x[hi])
            v = x[lo];
    }
    return v;
}

/* One kernel draw, bit for bit numpy's rng.normal(0, sigma),
 * rng.laplace(0, 1/beta), rng.uniform(-r, r), or np.interp(rng.random(),
 * cdf, x) for a tabulated kernel; n of them in a row are numpy's size-n call. */
static inline double draw(bitgen_t *bg, const kernel_t *k)
{
    switch (k->family) {
    case GAUSSIAN:
        return random_normal(bg, 0.0, k->param);
    case TWO_SIDED_EXPONENTIAL:
        return random_laplace(bg, 0.0, 1.0 / k->param);
    case UNIFORM:
        return random_uniform(bg, -k->param, k->param - -k->param);
    default:
        return tabulated_inverse(k, random_standard_uniform(bg));
    }
}

/* -- displacements ------------------------------------------------------------- */

/* The motion's displacements over n durations into out; 0 when out of
 * memory.  The durations are the jump counts' Poisson means.  A small
 * mean's count is found by sequential search on its uniform u (Devroye,
 * Non-Uniform Random Variate Generation, 1986): the first k at which
 * u - P(N <= k) turns negative.  The search runs in passes over the
 * lifelines whose count is at least k, as numpy's owner list has them, and
 * each pass draws those lifelines' k-th jumps.  Rounding can leave u above
 * every partial sum; such a search stops where the pmf underflows to 0.
 * The search's buffers live only for the call, so that a segment holds
 * them only while it draws. */
static int displace(bitgen_t *bg, const motion_t *m, int64_t n, const double *dur, double *out)
{
    const kernel_t *k = &m->jumps;
    if (m->diffusive) {
        random_standard_normal_fill(bg, n, out);
        for (int64_t i = 0; i < n; i++)
            out[i] *= sqrt(dur[i]);
    }
    if (k->family == NONE) {
        if (!m->diffusive)
            memset(out, 0, (size_t)n * sizeof *out);
        return 1;
    }
    size_t bytes = (size_t)n * sizeof(double);
    double *u = get(bytes);       /* the small means' uniforms, then residuals */
    double *pmf = get(bytes);     /* their exp(-mean), then the current term */
    int64_t *active = get(bytes); /* lifelines whose search goes on, in order */
    double *sums = NULL;          /* jump sums beside a Brownian part */
    int64_t *large = NULL;        /* (lifeline, count) pairs of the large means */
    int64_t large_cap = 0;
    int ok = 0;
    if (u == NULL || pmf == NULL || active == NULL)
        goto done;

    /* the large means' counts, in index order, and the small means' -mean */
    int64_t n_small = 0, n_large = 0, total = 0;
    for (int64_t i = 0; i < n; i++) {
        if (dur[i] >= POISSON_INVERSION_LIMIT) {
            if (!GROW(large, large_cap, 2 * n_large + 2, 1))
                goto done;
            large[2 * n_large] = i;
            large[2 * n_large + 1] = random_poisson(bg, dur[i]);
            total += large[2 * n_large + 1];
            n_large++;
        } else {
            pmf[n_small] = -dur[i];
            active[n_small++] = i;
        }
    }
    random_standard_uniform_fill(bg, n_small, u);
    /* exp(-mean) by numpy's own float64 exp loop, which is SIMD code */
    char *args[2] = {(char *)pmf, (char *)pmf};
    npy_intp len = n_small, steps[2] = {sizeof *pmf, sizeof *pmf};
    m->exp_loop(args, &len, steps, m->exp_data);
    int64_t n_active = 0;
    for (int64_t j = 0; j < n_small; j++) {
        double residual = u[j] - pmf[j];
        u[n_active] = residual;
        pmf[n_active] = pmf[j];
        active[n_active] = active[j];
        n_active += residual >= 0.0;
    }
    if (total == 0 && n_active == 0) {
        if (!m->diffusive)
            memset(out, 0, (size_t)n * sizeof *out);
        ok = 1;
        goto done;
    }

    /* the jumps in owner-list order, each added to its lifeline's sum; a
     * pure-jump displacement is that sum itself */
    if (m->diffusive && (sums = get(bytes)) == NULL)
        goto done;
    double *sum = m->diffusive ? sums : out;
    memset(sum, 0, (size_t)n * sizeof *sum);
    for (int64_t l = 0; l < n_large; l++) {
        for (int64_t c = 0; c < large[2 * l + 1]; c++)
            sum[large[2 * l]] += draw(bg, k);
    }
    for (int64_t pass = 1; n_active > 0; pass++) {
        int64_t kept = 0;
        for (int64_t a = 0; a < n_active; a++) {
            int64_t i = active[a];
            sum[i] += draw(bg, k);
            double p = pmf[a] * dur[i];
            p /= (double)pass;
            double residual = u[a] - p;
            u[kept] = residual;
            pmf[kept] = p;
            active[kept] = i;
            kept += (residual >= 0.0) & (p > 0.0);
        }
        n_active = kept;
    }
    if (m->diffusive) {
        for (int64_t i = 0; i < n; i++)
            out[i] += sums[i];
    }
    ok = 1;

done:
    put(u, bytes);
    put(pmf, bytes);
    put(active, bytes);
    if (sums != NULL)
        put(sums, bytes);
    PUT(large, large_cap);
    return ok;
}

/* -- litters --------------------------------------------------------------------- */

/* Draw the litters of nb parents: the sizes, when the law draws them (nb
 * uniforms into draws, each one's size the first count whose cdf exceeds
 * it, as Generator.choice), or the displaced children's kernel draws.
 * Returns the number of children. */
static int64_t draw_litters(bitgen_t *bg, const law_t *law, int64_t nb, int64_t *sizes,
                            double *draws)
{
    if (law->litter >= 0) {
        if (law->displacement.family != NONE) {
            for (int64_t i = 0; i < nb; i++)
                draws[i] = draw(bg, &law->displacement);
        }
        return nb * law->litter;
    }
    int64_t total = 0;
    random_standard_uniform_fill(bg, nb, draws);
    for (int64_t i = 0; i < nb; i++) {
        int64_t j = 0;
        while (j < law->size - 1 && law->cdf[j] <= draws[i])
            j++;
        sizes[i] = law->counts[j];
        total += sizes[i];
    }
    return total;
}

/* Replace the nb parents at the front of pos and t (and of tag, when given)
 * by their m children, grouped by parent in order: each child at its
 * parent, but the displaced child of a displaced law (the second of two) at
 * parent + draw, with its parent's time and tag.  The arrays have room for
 * m items.  Childless parents are dropped first, so that every parent's
 * children start at or after its own slot, and a sweep from the back never
 * overwrites a parent that it has yet to read. */
static void spawn(const law_t *law, int64_t nb, int64_t *sizes, const double *draws, int64_t m,
                  double *pos, double *t, int64_t *tag)
{
    int64_t litter = law->litter;
    if (litter == 0)
        return;
    if (litter < 0) {
        int64_t kept = 0;
        for (int64_t i = 0; i < nb; i++) {
            pos[kept] = pos[i];
            t[kept] = t[i];
            if (tag != NULL)
                tag[kept] = tag[i];
            sizes[kept] = sizes[i];
            kept += sizes[i] > 0;
        }
        nb = kept;
    }
    int displaced = law->displacement.family != NONE;
    for (int64_t i = nb - 1, o = m; i >= 0; i--) {
        int64_t c = litter > 0 ? litter : sizes[i];
        double p = pos[i];
        o -= c;
        for (int64_t r = 0; r < c; r++)
            pos[o + r] = p;
        if (displaced)
            pos[o + 1] = p + draws[i];
        double ti = t[i];
        for (int64_t r = 0; r < c; r++)
            t[o + r] = ti;
        if (tag != NULL) {
            int64_t gi = tag[i];
            for (int64_t r = 0; r < c; r++)
                tag[o + r] = gi;
        }
    }
}

/* -- segments -------------------------------------------------------------------- */

/* Advance n lifelines (tags may be NULL) from t_start to t_end.  On OK the
 * population at t_end is in res, finishers in round order, in buffers for
 * kpp_release; on CAPACITY res carries the time and count of the round that
 * passed max_particles. */
int kpp_segment(bitgen_t *bg, const motion_t *motion, const law_t *law, int64_t n,
                const double *pos0, const int64_t *tag0, double t_start, double t_end,
                int64_t max_particles, result_t *res)
{
    int tagged = tag0 != NULL, draws_needed = law->litter < 0 || law->displacement.family != NONE;
    double *pos = NULL, *time = NULL, *dur = NULL, *moved = NULL, *draws = NULL, *out_pos = NULL;
    int64_t *tag = NULL, *sizes = NULL, *out_tag = NULL;
    int64_t pos_cap = 0, time_cap = 0, tag_cap = 0, dur_cap = 0, moved_cap = 0, draws_cap = 0;
    int64_t sizes_cap = 0, out_pos_cap = 0, out_tag_cap = 0, n_done = 0;
    int status = NO_MEMORY;

    if (!GROW(pos, pos_cap, n, 0) || !GROW(time, time_cap, n, 0)
        || (tagged && !GROW(tag, tag_cap, n, 0)))
        goto done;
    for (int64_t i = 0; i < n; i++) {
        pos[i] = pos0[i];
        time[i] = t_start;
        if (tagged)
            tag[i] = tag0[i];
    }

    while (n > 0) {
        if (!GROW(dur, dur_cap, n, 0) || !GROW(moved, moved_cap, n, 0)
            || !GROW(out_pos, out_pos_cap, n_done + n, 1)
            || (tagged && !GROW(out_tag, out_tag_cap, n_done + n, 1)))
            goto done;
        random_standard_exponential_fill(bg, n, dur);
        /* a lifeline moves for its wait, or to t_end if it crosses; decided
         * on the sum, so no child starts at or past t_end; time becomes the
         * branching time */
        for (int64_t i = 0; i < n; i++) {
            double t_branch = time[i] + dur[i];
            dur[i] = pick_double(t_branch >= t_end, t_end - time[i], dur[i]);
            time[i] = t_branch;
        }
        if (!displace(bg, motion, n, dur, moved))
            goto done;
        /* finishers go out; branching lifelines close ranks in place */
        int64_t nb = 0;
        for (int64_t i = 0; i < n; i++) {
            double x = moved[i] + pos[i], t = time[i];
            int64_t finished = t >= t_end;
            out_pos[n_done] = x;
            pos[nb] = x;
            time[nb] = t;
            if (tagged) {
                int64_t g = tag[i];
                out_tag[n_done] = g;
                tag[nb] = g;
            }
            n_done += finished;
            nb += 1 - finished;
        }
        if (nb == 0)
            break;
        if ((law->litter < 0 && !GROW(sizes, sizes_cap, nb, 0))
            || (draws_needed && !GROW(draws, draws_cap, nb, 0)))
            goto done;
        int64_t m = draw_litters(bg, law, nb, sizes, draws);
        if (!GROW(pos, pos_cap, m, 1) || !GROW(time, time_cap, m, 1)
            || (tagged && !GROW(tag, tag_cap, m, 1)))
            goto done;
        spawn(law, nb, sizes, draws, m, pos, time, tagged ? tag : NULL);
        n = m;
        if (n_done + n > max_particles) {
            double first = t_end;
            for (int64_t i = 0; i < n; i++)
                first = i == 0 || time[i] < first ? time[i] : first;
            res->time = first;
            res->count = n_done + n;
            status = CAPACITY;
            goto done;
        }
    }
    status = OK;

done:
    PUT(pos, pos_cap);
    PUT(time, time_cap);
    PUT(tag, tag_cap);
    PUT(dur, dur_cap);
    PUT(moved, moved_cap);
    PUT(draws, draws_cap);
    PUT(sizes, sizes_cap);
    if (status == OK) {
        res->pos = out_pos;
        res->tag = out_tag;
        res->n = n_done;
        res->pos_bytes = out_pos_cap * (int64_t)sizeof *out_pos;
        res->tag_bytes = out_tag_cap * (int64_t)sizeof *out_tag;
    } else {
        PUT(out_pos, out_pos_cap);
        PUT(out_tag, out_tag_cap);
    }
    return status;
}

void kpp_release(void *p, int64_t bytes)
{
    put(p, (size_t)bytes);
}

/* numpy's float64 inner loop of a one-input ufunc such as np.exp, and its
 * data; 0 when the ufunc has none. */
int kpp_double_loop(PyObject *ufunc, PyUFuncGenericFunction *loop, void **data)
{
    PyUFuncObject *u = (PyUFuncObject *)ufunc;
    for (int i = 0; i < u->ntypes; i++) {
        if (u->nargs == 2 && u->types[2 * i] == NPY_DOUBLE && u->types[2 * i + 1] == NPY_DOUBLE) {
            *loop = u->functions[i];
            *data = u->data == NULL ? NULL : u->data[i];
            return 1;
        }
    }
    return 0;
}
