/* NLMASS, NLMNT2 and OUTPUT as the loop nests the paper ports (its Listings
 * 1-3): one cell, or one face, at a time over a row strip of one block.
 *
 * repro/core/loopnest.py builds this file once with the host's `cc`, lays a
 * block's call out once (addresses, pitch, rows: its Listing-6 table) and
 * then only launches it, a row strip at a time; the NumPy bodies of
 * core/mass.py, momentum.py and outputs.py are the reference.  Every
 * expression below keeps their operand order and the file is built with
 * -fno-fast-math -ffp-contract=off, so the two agree bit for bit in both
 * precisions.  The Manning power D^(7/3) is not computed here: libm's pow is
 * an ulp off NumPy's and 4-5x slower, so a momentum strip is `faces`, one
 * NumPy power over both sweeps' df_safe, `update` (DESIGN.md sections 9g, 9h).
 *
 * Layout.  z, h: R rows of pitch P, g ghost layers.  M faces: pitch P + 1,
 * N faces: pitch P, R + 1 rows.  A face at (r, k) lies between the cell
 * "behind" it and cell (r, k).  In the M sweep (turned == 0) behind is one
 * column back and across is one row; in the N sweep (turned == 1) the
 * reverse.  A strip is the cell rows [r0, r1); its N sweep has the face row
 * r1 as well when the strip is the block's last.  Per sweep `faces` fills
 * planes of (rows + 2) x (faces per row + 2) lanes — the targets and one face
 * all round — LM lanes for M, LN for N, laid out as six planes of LM + LN:
 * df, df_safe, flux, NV, cross flux, and df_safe^(7/3) for the caller to
 * fill, M's part of each first — so both sweeps' df_safe are one contiguous
 * range.  `sweeps` is 1 (M), 2 (N) or 3.  `nlmass` and `update` also carry the
 * ghost frame over from the old buffer: each strip its rows' ghost columns,
 * the first and last strip the ghost rows.  Wet/dry logic is selects only, so
 * the inner loops (always the unit-stride columns) vectorise.
 *
 * The exchange phases (DESIGN.md section 9i) are two more entry points, each
 * walking a table loopnest.py laid out once per set of arrays: `moves` (halo
 * seams, ghost fills, JNQ) and `restrict` (JNZ's 3x3 mean, in NumPy's own
 * summation orders).  The health guard (section 9j) is one more: `scan`, the
 * per-block reductions HealthMonitor and PhysicsSampler judge a state by.
 */
#ifndef REAL

#include <math.h>
#include <stdint.h>
#include <string.h>

/* np.maximum of a running product and a new value: a NaN in either stays,
 * and of two equal ones — zeros of either sign — the new one, as x86's max. */
static inline double fold(double a, double b)
{
    return a > b || a != a ? a : b;
}

/* A float's high 32-bit word holds its exponent: the finite test reads that
 * word alone, a 32-bit compare SSE2 vectorises (it has no 64-bit one). */
typedef uint32_t __attribute__((may_alias)) word;
#if __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
#define HIGH 0
#else
#define HIGH (sizeof(REAL) / 4 - 1)
#endif

/* Where a strip's sweeps lie in its scratch: M's lanes, then N's, per plane. */
#define SWEEPS                                                                 \
    const long last = r1 == R - g, WM = P - 2 * g + 3, WN = WM - 1;            \
    const long LM = sweeps & 1 ? (r1 - r0 + 2) * WM : 0;                       \
    const long LN = sweeps & 2 ? (r1 + last - r0 + 2) * WN : 0;

#define REAL double
#define BITS uint64_t
#define EXPONENT 0x7ff00000u
#define FN(name) name##_f64
#define SQRT sqrt
#define HYPOT hypot
#define FABS fabs
#include __FILE__
#undef REAL
#undef BITS
#undef EXPONENT
#undef FN
#undef SQRT
#undef HYPOT
#undef FABS

#define REAL float
#define BITS uint32_t
#define EXPONENT 0x7f800000u
#define FN(name) name##_f32
#define SQRT sqrtf
#define HYPOT hypotf
#define FABS fabsf
#include __FILE__

#else

/* The ghost frame of a strip: out = old on rows [r0, r1) left of column c0
 * and from c1 on, above r0 for the block's first strip, from r1 down for its
 * last (`rows` is the array's). */
static void FN(carry)(const REAL *old, REAL *restrict out, long pitch, long rows,
                      long r0, long r1, long c0, long c1, int first, int last)
{
    if (first)
        memcpy(out, old, sizeof(REAL) * r0 * pitch);
    for (long r = r0; r < r1; r++) {
        memcpy(out + r * pitch, old + r * pitch, sizeof(REAL) * c0);
        memcpy(out + r * pitch + c1, old + r * pitch + c1, sizeof(REAL) * (pitch - c1));
    }
    if (last)
        memcpy(out + r1 * pitch, old + r1 * pitch, sizeof(REAL) * (rows - r1) * pitch);
}

/* Eq. 1: z -= dt/dx (dM/dx + dN/dy) on the physical cells of rows [j0, j1),
 * then the wet/dry clamp: a cell left with less than `dry` of water sits on
 * the ground. */
void FN(nlmass)(const REAL *z, const REAL *m, const REAL *n, const REAL *h,
                REAL *restrict out, long P, long R, long g, long j0, long j1,
                double dt_dx, double dry_)
{
    const REAL r = (REAL)dt_dx, nr = (REAL)-dt_dx, dry = (REAL)dry_;
    for (long j = j0; j < j1; j++) {
        const REAL *zj = z + j * P, *hj = h + j * P, *nj = n + j * P;
        const REAL *mj = m + j * (P + 1);
        REAL *oj = out + j * P;
        for (long i = g; i < P - g; i++) {
            REAL zi = zj[i] - r * (mj[i + 1] - mj[i]);
            zi = zi + nr * (nj[i + P] - nj[i]);
            oj[i] = zi + hj[i] < dry ? -hj[i] : zi;
        }
    }
    FN(carry)(z, out, P, R, j0, j1, g, P - g, j0 == g, j1 == R - g);
}

/* Face quantities on rows [r0 - 1, r1 + 1) x columns [c0 - 1, c1 + 1): the
 * moving-boundary face depth df — the mean where both cells are wet, the
 * overflow head where one is and its water stands above the other's ground,
 * else 0: the face is closed — df_safe = max(df, dry), and for the nonlinear
 * scheme the advective flux M^2/D, the transverse flux NV averaged to the
 * face and the cross flux M NV/D.  Plane 5 is left for the caller's
 * df_safe^(7/3). */
static inline void FN(face_row)(const REAL *z, const REAL *h, const REAL *a,
                                const REAL *t, REAL *restrict df_, long plane,
                                long k0, long k1, long back, long tb, long tx,
                                REAL dry, const int nonlinear)
{
    for (long k = k0; k < k1; k++) {
        const REAL zl = z[k - back], zr = z[k], hl = h[k - back], hr = h[k];
        const REAL dl = zl + hl, dr = zr + hr;
        const REAL t1 = zl + hr, t2 = zr + hl;  /* heads: rightward, leftward */
        const REAL mean = (REAL)0.5 * (dl + dr);
        const REAL over_r = t1 > 0 ? t1 : 0, over_l = t2 > 0 ? t2 : 0;
        const REAL one_wet = dl > dry ? over_r : 0;
        const REAL df = dr > dry ? (dl > dry ? mean : over_l) : one_wet;
        const REAL dfs = df >= dry ? df : dry;
        df_[k] = df;
        df_[k + plane] = dfs;
        if (nonlinear) {
            const REAL m = a[k];
            REAL nv = t[k - tb] + t[k];
            nv = nv + t[k - tb + tx];
            nv = nv + t[k + tx];
            nv = (REAL)0.25 * nv;
            const REAL flux = m * m / dfs, cross = m * nv / dfs;
            df_[k + 2 * plane] = df == 0 ? 0 : flux;
            df_[k + 3 * plane] = nv;
            df_[k + 4 * plane] = df == 0 ? 0 : cross;
        }
    }
}

static void FN(face_rows)(const REAL *z, const REAL *h, const REAL *along,
                          const REAL *trans, REAL *restrict scratch, long plane,
                          long P, long turned, long r0, long r1, long c0, long c1,
                          long nonlinear, double dry)
{
    const long W = c1 - c0 + 2;
    const long pa = turned ? P : P + 1, pt = turned ? P + 1 : P;
    const long back = turned ? P : 1;            /* z, h: the cell behind */
    const long tb = turned ? pt : 1, tx = turned ? 1 : pt;

    for (long r = r0 - 1; r < r1 + 1; r++) {
        REAL *row = scratch + (r - r0 + 1) * W - (c0 - 1);
        if (nonlinear)  /* a literal each: behind a run-time flag gcc vectorises neither */
            FN(face_row)(z + r * P, h + r * P, along + r * pa, trans + r * pt,
                         row, plane, c0 - 1, c1 + 1, back, tb, tx, (REAL)dry, 1);
        else
            FN(face_row)(z + r * P, h + r * P, along + r * pa, trans + r * pt,
                         row, plane, c0 - 1, c1 + 1, back, tb, tx, (REAL)dry, 0);
    }
}

void FN(faces)(const REAL *z, const REAL *h, const REAL *m, const REAL *n,
               long P, long R, long g, long sweeps, REAL *restrict scratch,
               long r0, long r1, long nonlinear, double dry)
{
    SWEEPS
    if (sweeps & 1)
        FN(face_rows)(z, h, m, n, scratch, LM + LN, P, 0, r0, r1, g, P - g + 1,
                      nonlinear, dry);
    if (sweeps & 2)
        FN(face_rows)(z, h, n, m, scratch + LM, LM + LN, P, 1, r0, r1 + last, g,
                      P - g, nonlinear, dry);
}

/* Eqs. 2-3 on the target faces [r0, r1) x [c0, c1): pressure gradient,
 * first-order upwind advection, semi-implicit Manning friction (plane 5 of
 * the scratch holds df_safe^(7/3)), closed faces zeroed, the velocity cap. */
static inline void FN(update_row)(const REAL *z, const REAL *a,
                                  REAL *restrict out, const REAL *df_,
                                  long plane, long k0, long k1, long back,
                                  long s, long c, REAL dt, REAL dx,
                                  REAL gravity, REAL k_fric, REAL cap,
                                  const int nonlinear)
{
    const REAL *dfs_ = df_ + plane, *flux_ = dfs_ + plane;
    const REAL *nv_ = flux_ + plane, *cross_ = nv_ + plane;
    const REAL *pw_ = cross_ + plane;

    for (long k = k0; k < k1; k++) {
        const REAL m = a[k];
        REAL t3 = (z[k] - z[k - back]) / dx;
        REAL rhs = gravity * df_[k];
        rhs = rhs * dt;
        rhs = m - rhs * t3;
        if (nonlinear) {
            const REAL f = flux_[k], g = cross_[k], nv = nv_[k];
            const REAL f_up = f - flux_[k - s], f_down = flux_[k + s] - f;
            const REAL g_up = g - cross_[k - c], g_down = cross_[k + c] - g;
            t3 = (m >= 0 ? f_up : f_down) / dx;
            const REAL t4 = (nv >= 0 ? g_up : g_down) / dx;
            rhs = rhs - dt * (t3 + t4);
            t3 = k_fric * SQRT(m * m + nv * nv);
            t3 = 1 + dt * (t3 / pw_[k]);
            rhs = rhs / t3;
        }
        rhs = df_[k] == 0 ? 0 : rhs;
        const REAL hi = cap * dfs_[k], lo = -hi;   /* np.clip: a NaN stays */
        rhs = rhs <= lo ? lo : rhs;
        out[k] = rhs >= hi ? hi : rhs;
    }
}

static void FN(update_rows)(const REAL *z, const REAL *along, REAL *restrict out,
                            const REAL *scratch, long plane, long P, long turned,
                            long r0, long r1, long c0, long c1, long nonlinear,
                            double dt, double dx, double gravity, double k_fric,
                            double cap)
{
    const long W = c1 - c0 + 2;
    const long pa = turned ? P : P + 1, back = turned ? P : 1;
    const long s = turned ? W : 1, c = turned ? 1 : W;  /* scratch steps */

    for (long r = r0; r < r1; r++) {
        const REAL *row = scratch + (r - r0 + 1) * W - (c0 - 1);
        if (nonlinear)
            FN(update_row)(z + r * P, along + r * pa, out + r * pa, row, plane,
                           c0, c1, back, s, c, (REAL)dt, (REAL)dx,
                           (REAL)gravity, (REAL)k_fric, (REAL)cap, 1);
        else
            FN(update_row)(z + r * P, along + r * pa, out + r * pa, row, plane,
                           c0, c1, back, s, c, (REAL)dt, (REAL)dx,
                           (REAL)gravity, (REAL)k_fric, (REAL)cap, 0);
    }
}

void FN(update)(const REAL *z, const REAL *m, const REAL *n, REAL *restrict out_m,
                REAL *restrict out_n, long P, long R, long g, long sweeps,
                const REAL *scratch, long r0, long r1, long nonlinear, double dt,
                double dx, double gravity, double k_fric, double cap)
{
    SWEEPS
    if (sweeps & 1) {
        FN(update_rows)(z, m, out_m, scratch, LM + LN, P, 0, r0, r1, g, P - g + 1,
                        nonlinear, dt, dx, gravity, k_fric, cap);
        FN(carry)(m, out_m, P + 1, R, r0, r1, g, P - g + 1, r0 == g, last);
    }
    if (sweeps & 2) {
        FN(update_rows)(z, n, out_n, scratch + LM, LM + LN, P, 1, r0, r1 + last, g,
                        P - g, nonlinear, dt, dx, gravity, k_fric, cap);
        FN(carry)(n, out_n, P, R + 1, r0, r1 + last, g, P - g, r0 == g, last);
    }
}

/* "Update output data" on cells [j0, j1) x [0, nx) of the physical block
 * (products: pitch nx, no ghosts; zmax and z0 in the state's precision, the
 * rest double): the depth D = max(z + h, 0) and wetness, zmax where wet, the
 * cell-centred speed |(M, N)| / max(D, film) from the face means, capped — 0
 * on water no deeper than max(dry, film) — into vmax, the depth on wet land,
 * and the first time the level is more than `thr` off z0.  Where the gate
 * zeroes the speed it is not computed (hypot is half of this loop); where it
 * does not, D > film and max(D, film) is D. */
void FN(output)(const REAL *z, const REAL *m, const REAL *n, const REAL *h,
                REAL *zmax, double *vmax, double *inund, double *arrival,
                const REAL *z0, const unsigned char *land, long P, long g,
                long nx, long j0, long j1, double dry_, double film_,
                double cap_, double thr_, double now)
{
    const REAL dry = (REAL)dry_, film = (REAL)film_, cap = (REAL)cap_;
    const REAL thr = (REAL)thr_, gate = dry > film ? dry : film;
    for (long j = j0; j < j1; j++) {
        const REAL *zj = z + (g + j) * P + g, *hj = h + (g + j) * P + g;
        const REAL *mj = m + (g + j) * (P + 1) + g, *nj = n + (g + j) * P + g;
        for (long i = 0, k = j * nx; i < nx; i++, k++) {
            const REAL zi = zj[i], sum = zi + hj[i], d = sum < 0 ? 0 : sum;
            const int wet = d > dry;
            REAL speed = 0, off = zi - z0[k];
            if (wet)
                zmax[k] = (REAL)fold(zmax[k], zi);
            if (d > gate) {
                const REAL mc = (REAL)0.5 * (mj[i] + mj[i + 1]);
                const REAL nc = (REAL)0.5 * (nj[i] + nj[i + P]);
                speed = HYPOT(mc, nc) / d;
                speed = speed > cap ? cap : speed;
            }
            vmax[k] = fold(vmax[k], speed);
            inund[k] = fold(inund[k], land[k] && wet ? d : 0);
            off = off < 0 ? -off : off;
            if (off > thr && isinf(arrival[k]))
                arrival[k] = now;
        }
    }
}

/* The copies of the exchange phases, in table order — the order the NumPy
 * bodies assign in.  Per row of the table (8 longs) a rectangle of rows x
 * cols elements: the target's address and its row and column steps, the
 * source's likewise (steps in elements; a step of 0 repeats the source: a
 * ghost fill's one column or row, JNQ's parent face onto three child faces),
 * rows, cols.  Element bits are copied as they are, and no move's source
 * overlaps its target (loopnest.py checked both when it laid the table out). */
void FN(moves)(const long *t, long n)
{
    for (const long *end = t + 8 * n; t < end; t += 8) {
        BITS *d = (BITS *)t[0];
        const BITS *s = (const BITS *)t[3];
        const long drs = t[1], dcs = t[2], srs = t[4], scs = t[5], rows = t[6], cols = t[7];
        for (long r = 0; r < rows; r++, d += drs, s += srs) {
            if (dcs == 1 && scs == 1)
                memcpy(d, s, sizeof(BITS) * cols);
            else
                for (long c = 0; c < cols; c++)
                    d[c * dcs] = s[c * scs];
        }
    }
}

/* One 3x3 tile (rows p apart) summed as NumPy's add.reduce over the tile axes
 * sums it: in a region one parent cell wide, one pairwise block of the nine in
 * row-major order; in a wider one, row sums and then their sum.  Both start
 * from +0.0, so a tile of -0.0 sums to +0.0.  (Where two NaNs of opposite
 * sign meet, the sign that survives is the operand order each compiler chose
 * for its add — gcc's here, NumPy's build's there — not the source's.) */
static inline REAL FN(tile)(const REAL *a, long p, long narrow)
{
    const REAL *b = a + p, *c = b + p;
    const REAL zero = 0;
    if (narrow)
        return zero + ((((a[0] + a[1]) + (a[2] + b[0])) + ((b[1] + b[2]) + (c[0] + c[1]))) + c[2]);
    return ((zero + ((a[0] + a[1]) + a[2])) + ((b[0] + b[1]) + b[2])) + ((c[0] + c[1]) + c[2]);
}

/* JNZ: the 3x3 mean of child cells into parent cells.  Per row of the table
 * (5 longs) one region: its first child cell (an offset into `child`, whose
 * rows are cp apart), its nj x ni parent cells, where they go (an offset into
 * `dst`) and dst's row pitch.  A mean is the tile's sum divided in double by
 * 9 (NumPy's true_divide by an intp), rounded to the array's precision.  With
 * a land mask `h`, laid out as dst, only cells where h > 0 are written; without
 * one, dst is the parent or a dense JNZ buffer. */
void FN(restrict)(const long *t, long n, const REAL *child, long cp, const REAL *h,
                  REAL *dst)
{
    for (const long *end = t + 5 * n; t < end; t += 5) {
        const long nj = t[1], ni = t[2], dp = t[4];
        for (long j = 0; j < nj; j++) {
            const REAL *row = child + t[0] + 3 * j * cp;
            const long at = t[3] + j * dp;
            for (long i = 0; i < ni; i++) {
                const REAL mean = (REAL)((double)FN(tile)(row + 3 * i, cp, ni == 1) / 9.0);
                if (!h || h[at + i] > 0)
                    dst[at + i] = mean;
            }
        }
    }
}

/* 1 if none of a's n elements is an inf or a NaN: its exponent bits, read
 * from the high word, are not all set. */
static double FN(finite)(const REAL *a, long n)
{
    const word *w = (const word *)a + HIGH;
    const long step = sizeof(REAL) / 4;
    unsigned bad = 0;
    for (long k = 0; k < n; k++)
        bad |= (w[k * step] & EXPONENT) == EXPONENT;
    return !bad;
}

/* max |a| over n elements, from 0 (read only where a is finite).  Four
 * running maxima, so that no compare waits on the one before it. */
static double FN(peak)(const REAL *a, long n)
{
    REAL t0 = 0, t1 = 0, t2 = 0, t3 = 0;
    long k = 0;
    for (; k + 4 <= n; k += 4) {
        const REAL v0 = FABS(a[k]), v1 = FABS(a[k + 1]), v2 = FABS(a[k + 2]), v3 = FABS(a[k + 3]);
        t0 = v0 > t0 ? v0 : t0;
        t1 = v1 > t1 ? v1 : t1;
        t2 = v2 > t2 ? v2 : t2;
        t3 = v3 > t3 ? v3 : t3;
    }
    for (; k < n; k++) {
        const REAL v = FABS(a[k]);
        t0 = v > t0 ? v : t0;
    }
    t0 = t1 > t0 ? t1 : t0;
    t2 = t3 > t2 ? t3 : t2;
    return t2 > t0 ? t2 : t0;
}

/* HealthMonitor's and PhysicsSampler's reductions over every block.  Per row
 * of the table (9 longs) one block: the addresses of z, M, N and h (z, h: R
 * rows of pitch P, M: R x (P + 1), N: (R + 1) x P), then R, P, g, ny, nx.
 * Per block eight doubles of `rec`: whether all of the padded z, M and N are
 * finite (1 or 0); of the ny x nx physical cells, the wet ones, max |z| over
 * them (0 without one) and max D over all (a NaN if any is one); max |M| and
 * |N| over the padded arrays.  Each is a count, a max or an AND: once the
 * arrays are finite no order of the reduction changes it. */
void FN(scan)(const long *t, long n, double *rec, double dry_)
{
    const REAL dry = (REAL)dry_;
    for (const long *end = t + 9 * n; t < end; t += 9, rec += 8) {
        const REAL *z = (const REAL *)t[0], *m = (const REAL *)t[1];
        const REAL *nn = (const REAL *)t[2], *h = (const REAL *)t[3];
        const long R = t[4], P = t[5], g = t[6], ny = t[7], nx = t[8];
        long wet = 0;
        unsigned nan = 0;
        REAL eta = 0, d0 = 0, d1 = 0, d2 = 0, d3 = 0;
/* Cell i + l: its depth D = max(h + z, 0) as np.maximum takes it (a NaN stays,
 * -0.0 is +0.0) into the running max d<l> — four, so that no compare waits on
 * the one before it — and the NaN flag; a wet one into the count and max |z|
 * (a branch: water and land come in runs). */
#define CELL(l)                                                                \
    {                                                                          \
        const REAL zi = zj[i + l], sum = hj[i + l] + zi;                       \
        const REAL d = sum > 0 || sum != sum ? sum : 0;                        \
        nan |= d != d;                                                         \
        d##l = d > d##l ? d : d##l;                                            \
        if (d > dry) {                                                         \
            const REAL e = FABS(zi);                                           \
            wet++;                                                             \
            eta = e > eta ? e : eta;                                           \
        }                                                                      \
    }
        for (long j = g; j < g + ny; j++) {
            const REAL *zj = z + j * P + g, *hj = h + j * P + g;
            long i = 0;
            for (; i + 4 <= nx; i += 4) {
                CELL(0) CELL(1) CELL(2) CELL(3)
            }
            for (; i < nx; i++)
                CELL(0)
        }
#undef CELL
        d0 = d1 > d0 ? d1 : d0;
        d2 = d3 > d2 ? d3 : d2;
        rec[0] = FN(finite)(z, R * P);
        rec[1] = FN(finite)(m, R * (P + 1));
        rec[2] = FN(finite)(nn, (R + 1) * P);
        rec[3] = (double)wet;
        rec[4] = eta;
        rec[5] = nan ? NAN : d2 > d0 ? d2 : d0;
        rec[6] = FN(peak)(m, R * (P + 1));
        rec[7] = FN(peak)(nn, (R + 1) * P);
    }
}

#endif
