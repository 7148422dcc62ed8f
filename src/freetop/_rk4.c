/* Classical RK4 on dM/dt = [M, W] = [J, W^2] in the inertia eigenframe.
 *
 * There J = diag(lambda) and W_ij = M_ij / p_ij with p_ij = lambda_i +
 * lambda_j, so the field's entry (i, j) is (lambda_i - lambda_j) (W^2)_ij,
 * the expression whose norm is the stationarity residual. M and the field
 * are skew, so the RK4 state is the strict upper triangle of M: d = n(n-1)/2
 * entries in row-major order. Each stage divides those d entries, mirrors W
 * as exactly skew and forms, for i < j,
 *
 *     k_ij = gap_ij * sum_l W_il W_lj,   gap_ij = 0.5 * (p_ii - p_jj),
 *
 * which is lambda_i - lambda_j exactly when p_ii = 2 lambda_i. Each recorded
 * state, the first included, is written out as the full n x n matrix, with
 * out_ji = -out_ij and a zero diagonal.
 *
 * The same loop, in the same floating-point operation order, as
 * rk4_momentum_loops in tests/oracles.py, its bit-for-bit reference. Built
 * at -O3 without -ffast-math and with -ffp-contract=off, so no step is
 * reassociated or fused and the results are IEEE-deterministic: GCC then
 * vectorizes only element-wise loops and keeps each `acc +=` sum in order.
 * The results are bit for bit those of the -O2 build of the same loop.
 *
 * There is one loop body, `rk4`. `freetop_rk4_whole` calls it with a
 * literal n for n = 2..8, so the compiler can unroll and vectorize the short
 * loops of each small size, and with the runtime n above that. For n <= 4
 * (`small`) a stage divides in one packed pass before it mirrors, and its
 * sum skips the terms l = i and l = j: there W_ll = 0, so each is +-0, and
 * adding +-0 to a sum that starts at +0.0, which is never -0, leaves it
 * unchanged, so finite states keep their bits. Both make n = 3, 4 faster and
 * n >= 5 slower. The four stages run as a loop so that `field` is inlined
 * once per size, which keeps the first build near 1 s.
 *
 * `freetop_rk4_momentum` integrates each exactly decoupled axis set on its
 * own. The caller finds the sets of the exact nonzero support of m0 and
 * passes their axes, grouped by set and ascending within each, and their
 * sizes. For i and j in different sets every product W_il W_lj has a factor
 * that is exactly +-0, so the sum, which starts at +0.0, stays +0.0, and each
 * stage of (i, j) is z = gap_ij * (+0.0). `decoupled` writes every entry in
 * that closed form: m0 in record 0 and m0 + (dt/6) * (z + 2 * (z + z) + z)
 * in every later one, which is what the whole-matrix loop computes at its
 * first step and then keeps, a -0 included. Each set of two or more axes
 * then gathers its m0 and pair sums into work, runs `freetop_rk4_whole`,
 * the loop of its size, on them with its records in work too, and copies
 * those into its block of each record through its axes. (Records written
 * through the axes from inside the loop changed GCC's code for the loop of
 * every size and made whole matrices up to 20% slower at some n.) A set's
 * sums drop only the terms of other sets' axes, each an exact +-0, so
 * finite states keep their bits as above.
 * A stage costs the sum over the sets of d_s divisions and s d_s
 * multiply-adds (s axes, d_s = s(s-1)/2) in place of d and n d. With one
 * set (nsets < 2) `freetop_rk4_whole` runs on the whole matrix as before.
 * Once a set turns non-finite, the whole-matrix loop spreads NaN to every
 * entry through 0 * inf and the split does not, so later records differ;
 * the first non-finite record is the same.
 *
 * All buffers are C-contiguous arrays owned by the caller:
 *   m0, pair_sums  float64 (n, n), m0 exactly skew and
 *                  p_ij = 0.5 * (p_ii + p_jj)
 *   axes, sizes    int64 (n) and (nsets), the sets; unread if nsets < 2
 *   out            float64 (records, n, n), records = nsteps / record_every + 1
 *   work           float64 scratch: 9 * d + n * n for one set; for several,
 *                  (records + 3) * s * s + 9 * d_s for the largest, of s axes
 */
#include <stdint.h>

static inline void field(const double *restrict src,
                         const double *restrict pair,
                         const double *restrict gap, double *restrict w,
                         double *restrict dst, int64_t n, int small)
{
    int64_t t = 0;
    if (small) {
        double *q = w + n * n;
        for (int64_t s = 0; s < n * (n - 1) / 2; s++)
            q[s] = src[s] / pair[s];
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = i + 1; j < n; j++, t++) {
                w[i * n + j] = q[t];
                w[j * n + i] = -q[t];
            }
    } else {
        for (int64_t i = 0; i < n; i++)
            for (int64_t j = i + 1; j < n; j++, t++) {
                double x = src[t] / pair[t];
                w[i * n + j] = x;
                w[j * n + i] = -x;
            }
    }
    t = 0;
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = i + 1; j < n; j++, t++) {
            double acc = 0.0;
            for (int64_t l = 0; l < n; l++)
                if (!small || (l != i && l != j))
                    acc += w[i * n + l] * w[l * n + j];
            dst[t] = gap[t] * acc;
        }
    }
}

static inline void record(const double *restrict m, double *restrict dst,
                          int64_t n)
{
    int64_t t = 0;
    for (int64_t i = 0; i < n; i++) {
        dst[i * n + i] = 0.0;
        for (int64_t j = i + 1; j < n; j++, t++) {
            dst[i * n + j] = m[t];
            dst[j * n + i] = -m[t];
        }
    }
}

static inline void rk4(const double *restrict m0,
                       const double *restrict pair_sums, double dt, int64_t n,
                       int64_t nsteps, int64_t record_every,
                       double *restrict out, double *restrict work, int small)
{
    const int64_t d = n * (n - 1) / 2, nn = n * n;
    /* w is followed by d more entries, where a small stage divides. */
    double *m = work, *y = work + d, *k = work + 2 * d, *pair = work + 6 * d;
    double *gap = work + 7 * d, *w = work + 8 * d;
    /* y = m + weight[s] * k_s feeds stage s + 1. */
    const double weight[3] = {0.5 * dt, 0.5 * dt, dt};

    int64_t t = 0;
    for (int64_t i = 0; i < n; i++) {
        w[i * n + i] = 0.0;
        for (int64_t j = i + 1; j < n; j++, t++) {
            m[t] = m0[i * n + j];
            pair[t] = pair_sums[i * n + j];
            gap[t] = 0.5 * (pair_sums[i * n + i] - pair_sums[j * n + j]);
        }
    }
    record(m, out, n);
    int64_t r = 1;
    for (int64_t step = 0; step < nsteps; step++) {
        const double *src = m;
        for (int s = 0; s < 4; s++) {
            double *ks = k + s * d;
            field(src, pair, gap, w, ks, n, small);
            if (s < 3) {
                for (int64_t i = 0; i < d; i++)
                    y[i] = m[i] + weight[s] * ks[i];
                src = y;
            }
        }
        const double *k1 = k, *k2 = k + d, *k3 = k + 2 * d, *k4 = k + 3 * d;
        for (int64_t i = 0; i < d; i++)
            m[i] += (dt / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
        if ((step + 1) % record_every == 0) {
            record(m, out + r * nn, n);
            r++;
        }
    }
}

/* Called, not inlined, and with no PLT entry, so that it compiles to the same
 * code at the same address as when it was the only entry point: its
 * constant-size copies are sensitive to the code around them. */
__attribute__((noinline, visibility("hidden")))
void freetop_rk4_whole(const double *m0, const double *pair_sums, double dt,
                       int64_t n, int64_t nsteps, int64_t record_every,
                       double *out, double *work)
{
#define RK4_N(size, small) \
    rk4(m0, pair_sums, dt, size, nsteps, record_every, out, work, small)
    switch (n) {
    case 2: RK4_N(2, 1); break;
    case 3: RK4_N(3, 1); break;
    case 4: RK4_N(4, 1); break;
    case 5: RK4_N(5, 0); break;
    case 6: RK4_N(6, 0); break;
    case 7: RK4_N(7, 0); break;
    case 8: RK4_N(8, 0); break;
    default: RK4_N(n, 0); break;
    }
#undef RK4_N
}

/* Every entry of every record as the whole-matrix loop leaves an entry of
 * two decoupled sets; each set then overwrites its own block. */
static void decoupled(const double *m0, const double *pair_sums, double dt,
                      int64_t n, int64_t records, double *out)
{
    const int64_t nn = n * n;
    double *later = out + nn;
    for (int64_t i = 0; i < n; i++) {
        out[i * n + i] = 0.0;
        for (int64_t j = i + 1; j < n; j++) {
            out[i * n + j] = m0[i * n + j];
            out[j * n + i] = -m0[i * n + j];
        }
    }
    if (records < 2)
        return;
    for (int64_t i = 0; i < n; i++) {
        later[i * n + i] = 0.0;
        for (int64_t j = i + 1; j < n; j++) {
            const double z =
                0.5 * (pair_sums[i * n + i] - pair_sums[j * n + j]) * 0.0;
            const double x =
                m0[i * n + j] + (dt / 6.0) * (z + 2.0 * (z + z) + z);
            later[i * n + j] = x;
            later[j * n + i] = -x;
        }
    }
    for (int64_t r = 2; r < records; r++)
        for (int64_t k = 0; k < nn; k++)
            out[r * nn + k] = later[k];
}

void freetop_rk4_momentum(const double *m0, const double *pair_sums, double dt,
                          int64_t n, int64_t nsteps, int64_t record_every,
                          const int64_t *axes, const int64_t *sizes,
                          int64_t nsets, double *out, double *work)
{
    if (nsets < 2) {
        freetop_rk4_whole(m0, pair_sums, dt, n, nsteps, record_every, out,
                          work);
        return;
    }
    const int64_t records = nsteps / record_every + 1, nn = n * n;
    decoupled(m0, pair_sums, dt, n, records, out);
    for (int64_t s = 0; s < nsets; axes += sizes[s++]) {
        const int64_t size = sizes[s], ss = size * size;
        if (size < 2)
            continue;
        double *sub_m0 = work, *sub_pair = work + ss, *block = work + 2 * ss;
        for (int64_t i = 0; i < size; i++)
            for (int64_t j = 0; j < size; j++) {
                sub_m0[i * size + j] = m0[axes[i] * n + axes[j]];
                sub_pair[i * size + j] = pair_sums[axes[i] * n + axes[j]];
            }
        freetop_rk4_whole(sub_m0, sub_pair, dt, size, nsteps, record_every,
                          block, block + records * ss);
        for (int64_t r = 0; r < records; r++)
            for (int64_t i = 0; i < size; i++)
                for (int64_t j = 0; j < size; j++)
                    out[r * nn + axes[i] * n + axes[j]] =
                        block[r * ss + i * size + j];
    }
}
