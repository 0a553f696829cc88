/* Vectorized microkernel for the blocked complex GEMM.
 *
 * The OCaml side packs conj(A)^T so that every result entry is a pair of
 * contiguous dot products; this stub computes one rows x cols block of
 * those dots.  Separate re/im arrays (SoA) keep the k-loop a plain
 * fused-multiply-add reduction that the C compiler vectorizes.
 *
 * No allocation, no exceptions, no callbacks into the runtime: the
 * external is declared [@@noalloc] and raw [float array] data pointers
 * stay valid for the whole call (this domain cannot reach a GC
 * safepoint while inside).
 *
 * Layouts (column-major, zero-based):
 *   at : kk x m   column i holds conj of row i of the left operand
 *   b  : kk x n
 *   c  : m  x n   entries [ilo,ihi) x [j0,j1) are written, disjointly
 *                 per parallel chunk.
 *
 * For a fixed (i, j) the reduction order depends only on kk and the
 * pointer values, never on the [j0,j1) chunking, so results are
 * bit-identical for any domain count.
 */

#include <caml/mlvalues.h>

/* Elements of an OCaml float array are unboxed doubles stored inline. */
#define DATA(v) ((double *) Op_val(v))

CAMLprim value mfti_conj_dot_block(value vatre, value vatim, value vbre,
                                   value vbim, value vcre, value vcim,
                                   value vkk, value vm, value vilo,
                                   value vihi, value vj0, value vj1)
{
  const double *atre = DATA(vatre);
  const double *atim = DATA(vatim);
  const double *bre = DATA(vbre);
  const double *bim = DATA(vbim);
  double *cre = DATA(vcre);
  double *cim = DATA(vcim);
  long kk = Long_val(vkk);
  long m = Long_val(vm);
  long ilo = Long_val(vilo);
  long ihi = Long_val(vihi);
  long j0 = Long_val(vj0);
  long j1 = Long_val(vj1);

  for (long j = j0; j < j1; j++) {
    const double *brj = bre + j * kk;
    const double *bij = bim + j * kk;
    long i = ilo;
    /* Two result rows per pass reuse each loaded b vector twice. */
    for (; i + 1 < ihi; i += 2) {
      const double *a0r = atre + i * kk;
      const double *a0i = atim + i * kk;
      const double *a1r = a0r + kk;
      const double *a1i = a0i + kk;
      double s0r = 0.0, s0i = 0.0, s1r = 0.0, s1i = 0.0;
      for (long k = 0; k < kk; k++) {
        double br = brj[k], bi = bij[k];
        s0r += a0r[k] * br + a0i[k] * bi;
        s0i += a0r[k] * bi - a0i[k] * br;
        s1r += a1r[k] * br + a1i[k] * bi;
        s1i += a1r[k] * bi - a1i[k] * br;
      }
      cre[i + j * m] = s0r;
      cim[i + j * m] = s0i;
      cre[i + 1 + j * m] = s1r;
      cim[i + 1 + j * m] = s1i;
    }
    if (i < ihi) {
      const double *ar = atre + i * kk;
      const double *ai = atim + i * kk;
      double sr = 0.0, si = 0.0;
      for (long k = 0; k < kk; k++) {
        sr += ar[k] * brj[k] + ai[k] * bij[k];
        si += ar[k] * bij[k] - ai[k] * brj[k];
      }
      cre[i + j * m] = sr;
      cim[i + j * m] = si;
    }
  }
  return Val_unit;
}

CAMLprim value mfti_conj_dot_block_byte(value *argv, int argn)
{
  (void) argn;
  return mfti_conj_dot_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                             argv[5], argv[6], argv[7], argv[8], argv[9],
                             argv[10], argv[11]);
}

/* Real twins for the Krylov basis (lib/core/krylov.ml), same contract
 * as above: no allocation, raw float-array data, and for a fixed result
 * entry an accumulation order that depends only on the call's shape
 * arguments, never on the [j0,j1) column chunk a domain was handed.
 *
 * mfti_dot_block:  c[i + j*ldc] = sum_k a[k + i*kk] * b[k + j*kk]
 *   for i in [ilo,ihi), j in [j0,j1) -- columns of a dotted with
 *   columns of b, i.e. a^T b with neither operand transposed.
 */
CAMLprim value mfti_dot_block(value va, value vb, value vc, value vkk,
                              value vldc, value vilo, value vihi,
                              value vj0, value vj1)
{
  const double *a = DATA(va);
  const double *b = DATA(vb);
  double *c = DATA(vc);
  long kk = Long_val(vkk);
  long ldc = Long_val(vldc);
  long ilo = Long_val(vilo);
  long ihi = Long_val(vihi);
  long j0 = Long_val(vj0);
  long j1 = Long_val(vj1);

  for (long j = j0; j < j1; j++) {
    const double *bj = b + j * kk;
    long i = ilo;
    /* Four result rows per pass reuse each loaded b element four times. */
    for (; i + 3 < ihi; i += 4) {
      const double *a0 = a + i * kk;
      const double *a1 = a0 + kk;
      const double *a2 = a1 + kk;
      const double *a3 = a2 + kk;
      double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
      for (long k = 0; k < kk; k++) {
        double bk = bj[k];
        s0 += a0[k] * bk;
        s1 += a1[k] * bk;
        s2 += a2[k] * bk;
        s3 += a3[k] * bk;
      }
      c[i + j * ldc] = s0;
      c[i + 1 + j * ldc] = s1;
      c[i + 2 + j * ldc] = s2;
      c[i + 3 + j * ldc] = s3;
    }
    for (; i < ihi; i++) {
      const double *ai = a + i * kk;
      double s = 0.0;
      for (long k = 0; k < kk; k++) s += ai[k] * bj[k];
      c[i + j * ldc] = s;
    }
  }
  return Val_unit;
}

CAMLprim value mfti_dot_block_byte(value *argv, int argn)
{
  (void) argn;
  return mfti_dot_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                        argv[5], argv[6], argv[7], argv[8]);
}

/* mfti_axpy_block:  y[r + j*rows] += sum_i a[r + i*rows] * c[i + j*ldc]
 *   for r in [0,rows), j in [j0,j1), i ascending over [ilo,ihi) -- the
 *   product a c accumulated into y column by column, reading a in
 *   place.  Every y entry is updated element-wise, four a columns per
 *   pass, so the grouping depends only on [ilo,ihi).
 */
CAMLprim value mfti_axpy_block(value va, value vc, value vy, value vrows,
                               value vldc, value vilo, value vihi,
                               value vj0, value vj1)
{
  const double *a = DATA(va);
  const double *c = DATA(vc);
  double *y = DATA(vy);
  long rows = Long_val(vrows);
  long ldc = Long_val(vldc);
  long ilo = Long_val(vilo);
  long ihi = Long_val(vihi);
  long j0 = Long_val(vj0);
  long j1 = Long_val(vj1);

  for (long j = j0; j < j1; j++) {
    double *yj = y + j * rows;
    const double *cj = c + j * ldc;
    long i = ilo;
    for (; i + 3 < ihi; i += 4) {
      const double *a0 = a + i * rows;
      const double *a1 = a0 + rows;
      const double *a2 = a1 + rows;
      const double *a3 = a2 + rows;
      double c0 = cj[i], c1 = cj[i + 1], c2 = cj[i + 2], c3 = cj[i + 3];
      for (long r = 0; r < rows; r++)
        yj[r] += a0[r] * c0 + a1[r] * c1 + a2[r] * c2 + a3[r] * c3;
    }
    for (; i < ihi; i++) {
      const double *ai = a + i * rows;
      double ci = cj[i];
      for (long r = 0; r < rows; r++) yj[r] += ai[r] * ci;
    }
  }
  return Val_unit;
}

CAMLprim value mfti_axpy_block_byte(value *argv, int argn)
{
  (void) argn;
  return mfti_axpy_block(argv[0], argv[1], argv[2], argv[3], argv[4],
                         argv[5], argv[6], argv[7], argv[8]);
}
