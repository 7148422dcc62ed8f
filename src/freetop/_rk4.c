/* Classical RK4 on dM/dt = [M, M / pair_sums] in the inertia eigenframe.
 *
 * The same loop, in the same floating-point operation order, as
 * rk4_momentum_loops in tests/oracles.py, its bit-for-bit reference. Built
 * without -ffast-math and with -ffp-contract=off, so no step is reassociated
 * or fused and the results are IEEE-deterministic.
 *
 * All buffers are C-contiguous float64 arrays owned by the caller:
 *   m0, pair_sums  (n, n)
 *   out            (nsteps / record_every + 1, n, n)
 *   work           (7, n, n) scratch
 */
#include <stdint.h>

static void field(const double *src, const double *pair_sums, double *om,
                  double *dst, int64_t n)
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

void freetop_rk4_momentum(const double *m0, const double *pair_sums, double dt,
                          int64_t n, int64_t nsteps, int64_t record_every,
                          double *out, double *work)
{
    const int64_t nn = n * n;
    double *m = work, *y = work + nn, *om = work + 2 * nn;
    double *k1 = work + 3 * nn, *k2 = work + 4 * nn;
    double *k3 = work + 5 * nn, *k4 = work + 6 * nn;

    for (int64_t i = 0; i < nn; i++) {
        out[i] = m0[i];
        m[i] = m0[i];
    }
    int64_t r = 1;
    for (int64_t step = 0; step < nsteps; step++) {
        field(m, pair_sums, om, k1, n);
        for (int64_t i = 0; i < nn; i++)
            y[i] = m[i] + 0.5 * dt * k1[i];
        field(y, pair_sums, om, k2, n);
        for (int64_t i = 0; i < nn; i++)
            y[i] = m[i] + 0.5 * dt * k2[i];
        field(y, pair_sums, om, k3, n);
        for (int64_t i = 0; i < nn; i++)
            y[i] = m[i] + dt * k3[i];
        field(y, pair_sums, om, k4, n);
        for (int64_t i = 0; i < nn; i++)
            m[i] += (dt / 6.0) * (k1[i] + 2.0 * (k2[i] + k3[i]) + k4[i]);
        if ((step + 1) % record_every == 0) {
            for (int64_t i = 0; i < nn; i++)
                out[r * nn + i] = m[i];
            r++;
        }
    }
}
