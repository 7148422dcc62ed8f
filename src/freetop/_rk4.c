/* Classical RK4 on dM/dt = [M, M / pair_sums] in the inertia eigenframe.
 *
 * The same loop, in the same floating-point operation order, as
 * rk4_momentum_loops in tests/oracles.py, its bit-for-bit reference. Built
 * at -O3 without -ffast-math and with -ffp-contract=off, so no step is
 * reassociated or fused and the results are IEEE-deterministic: GCC then
 * vectorizes only element-wise loops and keeps each `acc +=` sum in order.
 *
 * There is one loop body, `rk4`. `freetop_rk4_momentum` calls it with a
 * literal n for n = 2..8, so the compiler can unroll and vectorize the short
 * loops of each small size, and with the runtime n above that. Those are the
 * sizes where a step is shortest and loop overhead weighs most (at n = 2 the
 * runtime-n loop is slower at -O3 than at -O2); larger n gain less from a
 * constant. The four stages run as a loop so that `field` is inlined once
 * per size, which keeps the first build under 1 s. The results are bit for
 * bit those of the -O2 build of the same loop.
 *
 * All buffers are C-contiguous float64 arrays owned by the caller:
 *   m0, pair_sums  (n, n)
 *   out            (nsteps / record_every + 1, n, n)
 *   work           (7, n, n) scratch
 */
#include <stdint.h>

static inline void field(const double *restrict src,
                         const double *restrict pair_sums,
                         double *restrict om, double *restrict dst, int64_t n)
{
    for (int64_t i = 0; i < n * n; i++)
        om[i] = src[i] / pair_sums[i];
    for (int64_t i = 0; i < n; i++) {
        for (int64_t j = 0; j < n; j++) {
            double acc = 0.0;
            for (int64_t l = 0; l < n; l++)
                acc += src[i * n + l] * om[l * n + j];
            dst[i * n + j] = acc;
        }
    }
    for (int64_t i = 0; i < n; i++) {
        dst[i * n + i] = 0.0;
        for (int64_t j = i + 1; j < n; j++) {
            double c = dst[i * n + j] - dst[j * n + i];
            dst[i * n + j] = c;
            dst[j * n + i] = -c;
        }
    }
}

static inline void rk4(const double *restrict m0,
                       const double *restrict pair_sums, double dt, int64_t n,
                       int64_t nsteps, int64_t record_every,
                       double *restrict out, double *restrict work)
{
    const int64_t nn = n * n;
    double *m = work, *y = work + nn, *om = work + 2 * nn, *k = work + 3 * nn;
    /* y = m + weight[s] * k_s feeds stage s + 1. */
    const double weight[3] = {0.5 * dt, 0.5 * dt, dt};

    for (int64_t i = 0; i < nn; i++) {
        out[i] = m0[i];
        m[i] = m0[i];
    }
    int64_t r = 1;
    for (int64_t step = 0; step < nsteps; step++) {
        const double *src = m;
        for (int s = 0; s < 4; s++) {
            double *ks = k + s * nn;
            field(src, pair_sums, om, ks, n);
            if (s < 3) {
                for (int64_t i = 0; i < nn; i++)
                    y[i] = m[i] + weight[s] * ks[i];
                src = y;
            }
        }
        const double *k1 = k, *k2 = k + nn, *k3 = k + 2 * nn, *k4 = k + 3 * nn;
        for (int64_t i = 0; i < nn; i++)
            m[i] += (dt / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
        if ((step + 1) % record_every == 0) {
            for (int64_t i = 0; i < nn; i++)
                out[r * nn + i] = m[i];
            r++;
        }
    }
}

void freetop_rk4_momentum(const double *m0, const double *pair_sums, double dt,
                          int64_t n, int64_t nsteps, int64_t record_every,
                          double *out, double *work)
{
#define RK4_N(size) rk4(m0, pair_sums, dt, size, nsteps, record_every, out, work)
    switch (n) {
    case 2: RK4_N(2); break;
    case 3: RK4_N(3); break;
    case 4: RK4_N(4); break;
    case 5: RK4_N(5); break;
    case 6: RK4_N(6); break;
    case 7: RK4_N(7); break;
    case 8: RK4_N(8); break;
    default: RK4_N(n); break;
    }
#undef RK4_N
}
