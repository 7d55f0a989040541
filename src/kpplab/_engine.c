/*
 * Compiled engine of kpplab's event-driven simulator.
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
 * has jumps at all.
 *
 * kpp_replica runs one untagged population, segment after segment, through
 * its checkpoints, and at each one takes the minimum, the martingales W and
 * D and the right-tail prune; an ensemble replica and the public
 * single-population operations are both such calls.  Their terms are formed
 * in numpy's order, exp is numpy's loop again, and every sum (W and D, and
 * the prune bound as a W half) is numpy's pairwise summation in one routine,
 * pairwise_wd, so they too are bit for bit numpy's.  kpp_merged runs one
 * chunk of merged replicas, a tagged segment of origin particles, and
 * reduces it per origin at once.  The engine keeps no state between calls:
 * both work on buffers that their caller keeps from call to call
 * (kpp_work_new).
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

/* numpy's float64 inner loop of np.exp, and its data */
typedef struct {
    PyUFuncGenericFunction loop;
    void *data;
} exp_t;

typedef struct {
    int64_t diffusive;
    kernel_t jumps; /* family NONE: no jump part */
    exp_t exp;
} motion_t;

typedef struct {
    int64_t litter;        /* one litter size for every parent, or -1 */
    const double *cdf;     /* the count law's normalized cdf when drawn */
    const int64_t *counts; /* and its counts */
    int64_t size;
    kernel_t displacement; /* family NONE: every child at the parent */
} law_t;

typedef struct {
    const double *pos;       /* the population at the last checkpoint, in the caller's work_t */
    int64_t n;
    double bound;            /* the prune bound, summed over the checkpoints */
    int64_t rounds;          /* segment rounds */
    int64_t lifelines;       /* lifelines over those rounds */
    int64_t peak_population; /* largest count at a checkpoint, before pruning */
    int64_t pruned;          /* particles pruned */
    double time;             /* CapacityError.time */
    int64_t count;           /* CapacityError.count */
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

/* A segment's buffers, each with its capacity in items, which a caller
 * keeps from call to call, so that a call finds the pages of the last one
 * instead of faulting in fresh ones.  Between segments dur holds the
 * martingale, prune and merged-sum terms. */
typedef struct {
    double *pos, *time, *dur, *moved, *draws; /* the round's lifelines and draws */
    int64_t *tag, *sizes;
    double *out_pos; /* the population at the segment's end */
    int64_t *out_tag;
    double *u, *pmf, *sums; /* the jump inversion's scratch */
    int64_t *active, *large;
    int64_t pos_cap, time_cap, dur_cap, moved_cap, draws_cap, tag_cap, sizes_cap;
    int64_t out_pos_cap, out_tag_cap, u_cap, pmf_cap, sums_cap, active_cap, large_cap;
    int64_t rounds, lifelines; /* counters */
} work_t;

/* grow or free the buffer w->field */
#define GROW(w, field, need, keep)                                                           \
    grow((void **)&(w)->field, &(w)->field##_cap, (need), sizeof *(w)->field, (keep))
#define PUT(w, field)                                                                        \
    (put((w)->field, (size_t)(w)->field##_cap * sizeof *(w)->field), (w)->field = NULL,      \
     (w)->field##_cap = 0)

/* Buffers for kpp_merged and kpp_replica; NULL when out of memory. */
work_t *kpp_work_new(void)
{
    return calloc(1, sizeof(work_t));
}

void kpp_work_free(work_t *w)
{
    PUT(w, u);
    PUT(w, pmf);
    PUT(w, sums);
    PUT(w, active);
    PUT(w, large);
    PUT(w, pos);
    PUT(w, time);
    PUT(w, dur);
    PUT(w, moved);
    PUT(w, draws);
    PUT(w, tag);
    PUT(w, sizes);
    PUT(w, out_pos);
    PUT(w, out_tag);
    free(w);
}

/* out[i] = exp(in[i]) by numpy's own float64 exp loop, which is SIMD code;
 * out may be in, which the loop computes alike */
static void exp_fill(const exp_t *e, int64_t n, const double *in, double *out)
{
    char *args[2] = {(char *)in, (char *)out};
    npy_intp len = n, steps[2] = {sizeof *in, sizeof *out};
    if (n > 0)
        e->loop(args, &len, steps, e->data);
}

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
 * The search's buffers are w's scratch. */
static int displace(bitgen_t *bg, const motion_t *m, work_t *w, int64_t n, const double *dur,
                    double *out)
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
    /* u: the small means' uniforms, then residuals; pmf: their exp(-mean),
     * then the current term; active: lifelines whose search goes on, in
     * order; large: (lifeline, count) pairs of the large means */
    if (!GROW(w, u, n, 0) || !GROW(w, pmf, n, 0) || !GROW(w, active, n, 0))
        return 0;
    double *u = w->u, *pmf = w->pmf;
    int64_t *active = w->active;

    /* the large means' counts, in index order, and the small means' -mean */
    int64_t n_small = 0, n_large = 0, total = 0;
    for (int64_t i = 0; i < n; i++) {
        if (dur[i] >= POISSON_INVERSION_LIMIT) {
            if (!GROW(w, large, 2 * n_large + 2, 1))
                return 0;
            w->large[2 * n_large] = i;
            w->large[2 * n_large + 1] = random_poisson(bg, dur[i]);
            total += w->large[2 * n_large + 1];
            n_large++;
        } else {
            pmf[n_small] = -dur[i];
            active[n_small++] = i;
        }
    }
    random_standard_uniform_fill(bg, n_small, u);
    exp_fill(&m->exp, n_small, pmf, pmf);
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
        return 1;
    }

    /* the jumps in owner-list order, each added to its lifeline's sum; a
     * pure-jump displacement is that sum itself */
    if (m->diffusive && !GROW(w, sums, n, 0))
        return 0;
    double *sum = m->diffusive ? w->sums : out;
    memset(sum, 0, (size_t)n * sizeof *sum);
    for (int64_t l = 0; l < n_large; l++) {
        for (int64_t c = 0; c < w->large[2 * l + 1]; c++)
            sum[w->large[2 * l]] += draw(bg, k);
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
            out[i] += w->sums[i];
    }
    return 1;
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

/* Advance n lifelines (tags may be NULL) from t_start to t_end on w's
 * buffers.  On OK the *n_out particles at t_end are in w->out_pos (and
 * w->out_tag), finishers in round order; pos0 and tag0 may be w->out_pos
 * and w->out_tag themselves.  On CAPACITY *time and *count are those of
 * the round that passed max_particles. */
static int segment(bitgen_t *bg, const motion_t *motion, const law_t *law, work_t *w, int64_t n,
                   const double *pos0, const int64_t *tag0, double t_start, double t_end,
                   int64_t max_particles, int64_t *n_out, double *time, int64_t *count)
{
    int tagged = tag0 != NULL, draws_needed = law->litter < 0 || law->displacement.family != NONE;
    int64_t n_done = 0;

    if (!GROW(w, pos, n, 0) || !GROW(w, time, n, 0) || (tagged && !GROW(w, tag, n, 0)))
        return NO_MEMORY;
    for (int64_t i = 0; i < n; i++) {
        w->pos[i] = pos0[i];
        w->time[i] = t_start;
        if (tagged)
            w->tag[i] = tag0[i];
    }

    while (n > 0) {
        if (!GROW(w, dur, n, 0) || !GROW(w, moved, n, 0) || !GROW(w, out_pos, n_done + n, 1)
            || (tagged && !GROW(w, out_tag, n_done + n, 1)))
            return NO_MEMORY;
        double *pos = w->pos, *t_of = w->time, *dur = w->dur, *moved = w->moved;
        int64_t *tag = w->tag;
        w->rounds++;
        w->lifelines += n;
        random_standard_exponential_fill(bg, n, dur);
        /* a lifeline moves for its wait, or to t_end if it crosses; decided
         * on the sum, so no child starts at or past t_end; time becomes the
         * branching time */
        for (int64_t i = 0; i < n; i++) {
            double t_branch = t_of[i] + dur[i];
            dur[i] = pick_double(t_branch >= t_end, t_end - t_of[i], dur[i]);
            t_of[i] = t_branch;
        }
        if (!displace(bg, motion, w, n, dur, moved))
            return NO_MEMORY;
        /* finishers go out; branching lifelines close ranks in place */
        int64_t nb = 0;
        for (int64_t i = 0; i < n; i++) {
            double x = moved[i] + pos[i], t = t_of[i];
            int64_t finished = t >= t_end;
            w->out_pos[n_done] = x;
            pos[nb] = x;
            t_of[nb] = t;
            if (tagged) {
                int64_t g = tag[i];
                w->out_tag[n_done] = g;
                tag[nb] = g;
            }
            n_done += finished;
            nb += 1 - finished;
        }
        if (nb == 0)
            break;
        if ((law->litter < 0 && !GROW(w, sizes, nb, 0)) || (draws_needed && !GROW(w, draws, nb, 0)))
            return NO_MEMORY;
        int64_t m = draw_litters(bg, law, nb, w->sizes, w->draws);
        if (!GROW(w, pos, m, 1) || !GROW(w, time, m, 1) || (tagged && !GROW(w, tag, m, 1)))
            return NO_MEMORY;
        spawn(law, nb, w->sizes, w->draws, m, w->pos, w->time, tagged ? w->tag : NULL);
        n = m;
        if (n_done + n > max_particles) {
            double first = t_end;
            for (int64_t i = 0; i < n; i++)
                first = i == 0 || w->time[i] < first ? w->time[i] : first;
            *time = first;
            *count = n_done + n;
            return CAPACITY;
        }
    }
    *n_out = n_done;
    return OK;
}

/* One chunk of merged replicas: n origin particles at 0.0, each tagged with
 * its index, run from time 0 to t_end on w's buffers, and reduced per
 * origin into out[0..n).  That is the minimum of its particles at t_end
 * (inf when there are none), or, with sums, the sum of exp(-lambda x) over
 * them in the order they finished, from 0.0, as numpy's
 * np.bincount(tags, weights=np.exp(-lambda * x)) forms it.  On CAPACITY
 * res carries the time and count of the round that passed max_particles. */
int kpp_merged(work_t *w, bitgen_t *bg, const motion_t *motion, const law_t *law, int64_t n,
               double t_end, int64_t max_particles, int sums, double lambda, double *out,
               result_t *res)
{
    if (!GROW(w, out_pos, n, 0) || !GROW(w, out_tag, n, 0))
        return NO_MEMORY;
    for (int64_t i = 0; i < n; i++) {
        w->out_pos[i] = 0.0;
        w->out_tag[i] = i;
    }
    int64_t m = n;
    if (t_end != 0.0 && n > 0) {
        int status = segment(bg, motion, law, w, n, w->out_pos, w->out_tag, 0.0, t_end,
                             max_particles, &m, &res->time, &res->count);
        if (status != OK)
            return status;
    }
    const double *x = w->out_pos;
    const int64_t *tag = w->out_tag;
    if (!sums) {
        for (int64_t i = 0; i < n; i++)
            out[i] = INFINITY;
        for (int64_t i = 0; i < m; i++)
            out[tag[i]] = x[i] < out[tag[i]] ? x[i] : out[tag[i]];
        return OK;
    }
    if (!GROW(w, dur, m, 0))
        return NO_MEMORY;
    double *e = w->dur, scale = -lambda;
    for (int64_t i = 0; i < m; i++)
        e[i] = scale * x[i];
    exp_fill(&motion->exp, m, e, e);
    for (int64_t i = 0; i < n; i++)
        out[i] = 0.0;
    for (int64_t i = 0; i < m; i++)
        out[tag[i]] += e[i];
    return OK;
}

/* -- the martingales and the prune ------------------------------------------------ */

/* numpy's pairwise summation of e[0..n) into wd[0] and, in the same order,
 * of (lambda x + shift) e into wd[1], in one pass; np.sum of n contiguous
 * doubles is 0.0 (the reduction's initial value) plus such a sum.  Below 8
 * items a plain loop; up to 128, 8 accumulators and then the tail; above,
 * halves split at a multiple of 8. */
static void pairwise_wd(const double *x, const double *e, int64_t n, double lambda, double shift,
                        double *wd)
{
    if (n < 8) {
        double w = -0.0, d = -0.0;
        for (int64_t i = 0; i < n; i++) {
            w += e[i];
            d += (lambda * x[i] + shift) * e[i];
        }
        wd[0] = w;
        wd[1] = d;
        return;
    }
    if (n <= 128) {
        double rw[8], rd[8];
        int64_t i;
        for (int j = 0; j < 8; j++) {
            rw[j] = e[j];
            rd[j] = (lambda * x[j] + shift) * e[j];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (int j = 0; j < 8; j++) {
                rw[j] += e[i + j];
                rd[j] += (lambda * x[i + j] + shift) * e[i + j];
            }
        }
        double w = ((rw[0] + rw[1]) + (rw[2] + rw[3])) + ((rw[4] + rw[5]) + (rw[6] + rw[7]));
        double d = ((rd[0] + rd[1]) + (rd[2] + rd[3])) + ((rd[4] + rd[5]) + (rd[6] + rd[7]));
        for (; i < n; i++) {
            w += e[i];
            d += (lambda * x[i] + shift) * e[i];
        }
        wd[0] = w;
        wd[1] = d;
        return;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    double lo[2], hi[2];
    pairwise_wd(x, e, n2, lambda, shift, lo);
    pairwise_wd(x + n2, e + n2, n - n2, lambda, shift, hi);
    wd[0] = lo[0] + hi[0];
    wd[1] = lo[1] + hi[1];
}

/* W = sum exp(-a) and D = sum a exp(-a), a = lambda x + shift, formed and
 * summed as numpy's `a = lambda * x + shift; e = np.exp(-a)`, `e.sum()`
 * and `(a * e).sum()`; exp(-a) goes to w's dur.  0 when out of memory. */
static int martingale_sums(work_t *w, const exp_t *exp, const double *x, int64_t n, double lambda,
                           double shift, double *wd)
{
    if (!GROW(w, dur, n, 0))
        return 0;
    double *e = w->dur;
    for (int64_t i = 0; i < n; i++)
        e[i] = -(lambda * x[i] + shift);
    exp_fill(exp, n, e, e);
    pairwise_wd(x, e, n, lambda, shift, wd);
    wd[0] = 0.0 + wd[0];
    wd[1] = 0.0 + wd[1];
    return 1;
}

/* The smallest and the largest of x[0..n), n > 0, in four interleaved
 * strands, so that no comparison waits on the one before; with no NaN
 * among the positions, the order changes neither value. */
static void extremes(const double *x, int64_t n, double *low, double *high)
{
    double lo[4], hi[4];
    int64_t i;
    for (int j = 0; j < 4; j++)
        lo[j] = hi[j] = x[0];
    for (i = 0; i + 4 <= n; i += 4) {
        for (int j = 0; j < 4; j++) {
            lo[j] = x[i + j] < lo[j] ? x[i + j] : lo[j];
            hi[j] = x[i + j] > hi[j] ? x[i + j] : hi[j];
        }
    }
    for (; i < n; i++) {
        lo[0] = x[i] < lo[0] ? x[i] : lo[0];
        hi[0] = x[i] > hi[0] ? x[i] : hi[0];
    }
    for (int j = 1; j < 4; j++) {
        lo[0] = lo[j] < lo[0] ? lo[j] : lo[0];
        hi[0] = hi[j] > hi[0] ? hi[j] : hi[0];
    }
    *low = lo[0];
    *high = hi[0];
}

/* Drop the particles of x[0..n) further than window above the minimum,
 * keeping the others in order, and add to *bound the sum of exp(-lambda
 * (x - min)) over the dropped ones, formed and summed as numpy's
 * `np.exp(-lambda * (removed - low)).sum()`; the terms go to w's dur.
 * Returns the number kept, or -1 when out of memory. */
static int64_t prune_pass(work_t *w, const exp_t *exp, double *x, int64_t n, double lambda,
                          double window, double *bound)
{
    if (n == 0)
        return 0;
    double low, high;
    extremes(x, n, &low, &high);
    double limit = low + window, scale = -lambda;
    if (high <= limit)
        return n;
    if (!GROW(w, dur, n, 0))
        return -1;
    double *t = w->dur;
    int64_t kept = 0, removed = 0;
    for (int64_t i = 0; i < n; i++) { /* without a branch: which side is random */
        double xi = x[i];
        int64_t keep = xi <= limit;
        x[kept] = xi;
        t[removed] = scale * (xi - low);
        kept += keep;
        removed += 1 - keep;
    }
    exp_fill(exp, removed, t, t);
    double wd[2]; /* the sum of the terms is the W half */
    pairwise_wd(t, t, removed, 0.0, 0.0, wd);
    *bound = *bound + (0.0 + wd[0]);
    return kept;
}

/* -- replicas ----------------------------------------------------------------------- */

/* A population of n0 particles at pos0 at time t0 through n_cp increasing
 * checkpoints on w's buffers.  At checkpoint k it runs the segment from the
 * previous checkpoint (none when extinct or when the time is the same),
 * then records the minimum (inf when extinct) into minima when record[k], W
 * and D at generation gen[k] into w_out and d_out when gen[k] >= 0 (shift
 * gen[k] * psi), and prunes with the window when it is finite.  On OK res
 * holds the population at the last checkpoint, which stays in w until its
 * next call, the bound and the counters; on CAPACITY the time and count of
 * the round that passed max_particles.  bg, motion's draws and law are read
 * only by a segment. */
int kpp_replica(work_t *w, bitgen_t *bg, const motion_t *motion, const law_t *law, int64_t n0,
                const double *pos0, double t0, int64_t n_cp, const double *checkpoints,
                const int8_t *record, const int64_t *gen, double lambda, double psi, double window,
                int64_t max_particles, double *minima, double *w_out, double *d_out, result_t *res)
{
    int64_t n = n0;
    double t = t0;
    *res = (result_t){0};
    w->rounds = w->lifelines = 0;
    if (!GROW(w, out_pos, n, 0))
        return NO_MEMORY;
    for (int64_t i = 0; i < n; i++)
        w->out_pos[i] = pos0[i];
    for (int64_t k = 0; k < n_cp; k++) {
        double t_end = checkpoints[k];
        if (t_end != t && n > 0) {
            int status = segment(bg, motion, law, w, n, w->out_pos, NULL, t, t_end, max_particles,
                                 &n, &res->time, &res->count);
            if (status != OK)
                return status;
        }
        t = t_end;
        res->peak_population = n > res->peak_population ? n : res->peak_population;
        if (record[k]) {
            double low = INFINITY, high;
            if (n > 0)
                extremes(w->out_pos, n, &low, &high);
            *minima++ = low;
        }
        if (gen[k] >= 0) {
            double wd[2];
            if (!martingale_sums(w, &motion->exp, w->out_pos, n, lambda, (double)gen[k] * psi, wd))
                return NO_MEMORY;
            *w_out++ = wd[0];
            *d_out++ = wd[1];
        }
        if (isfinite(window)) {
            int64_t kept = prune_pass(w, &motion->exp, w->out_pos, n, lambda, window, &res->bound);
            if (kept < 0)
                return NO_MEMORY;
            res->pruned += n - kept;
            n = kept;
        }
    }
    res->pos = w->out_pos;
    res->n = n;
    res->rounds = w->rounds;
    res->lifelines = w->lifelines;
    return OK;
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
