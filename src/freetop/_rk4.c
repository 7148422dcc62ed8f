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
 * There is one loop body, `rk4`. `freetop_rk4_momentum` calls it with a
 * literal n for n = 2..8, so the compiler can unroll and vectorize the short
 * loops of each small size, and with the runtime n above that. For n <= 4
 * (`small`) a stage divides in one packed pass before it mirrors, and its
 * sum skips the terms l = i and l = j: there W_ll = 0, so each is +-0, and
 * adding +-0 to a sum that starts at +0.0, which is never -0, leaves it
 * unchanged, so finite states keep their bits. Both make n = 3, 4 faster and
 * n >= 5 slower. The four stages run as a loop so that `field` is inlined
 * once per size, which keeps the first build near 1 s.
 *
 * `_kernels.rk4_momentum` calls it on the whole matrix, or on each axis set
 * of three or more that exact zeros split off, and writes the rest itself.
 *
 * All buffers are C-contiguous float64 arrays owned by the caller:
 *   m0, pair_sums  (n, n), m0 exactly skew, p_ij = 0.5 p_ii + 0.5 p_jj
 *   out            (nsteps / record_every + 1, n, n)
 *   work           9 * d + n * n scratch
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

void freetop_rk4_momentum(const double *m0, const double *pair_sums, double dt,
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
