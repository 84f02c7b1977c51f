/* The native kernel: one circuit-generic C translation unit.

   The three forward passes over row-major (n_signals, n_words) uint64
   slabs, the per-batch PPSFP detection and strength walks, the stuck-at
   cone resimulation, the TPG implication engine, and a campaign's
   generation and drop rounds built from them.  Circuits arrive
   per call as a repro_plan struct, so this text never changes between
   circuits; repro/kernel/native.py compiles it once per machine with
   cffi, against the declarations in native.cdef, and names the module
   by a hash of both texts.  The row codec's two readers at the end of
   the file read Python objects, so the unit includes Python.h, first,
   as Python asks, and is built without the limited API.
   scripts/check_native_source.py compiles it alone under -std=c99
   -Wall -Wextra -Werror against Python's headers, and
   scripts/check_native_sanitizers.py runs the native test suites on an
   ASan + UBSan build. */
#include <Python.h>
#ifndef _POSIX_C_SOURCE
#define _POSIX_C_SOURCE 199309L
#endif
#include <stdint.h>
#include <stdlib.h>
#include <string.h>
#include <time.h>
typedef uint64_t u64;

/* Every entry point takes the circuit as a repro_plan struct -- the
   level-order plan, per-signal gate codes, fanin CSR and controlling
   values, built once per compiled circuit by
   repro.kernel.native.native_plan -- so one compiled module serves
   every circuit and is built once per machine.  The forward passes are
   data-driven interpreters over that plan: straight-line rendering made
   gcc's per-function passes the build bottleneck (minutes at -O1 on a
   2k-gate circuit), while the per-gate switch dispatch is noise next to
   the slab memory traffic each gate's plane math streams.  The fold
   formulas are the n-ary emitter formulas of _emit_planes7 /
   _emit_planes10 (repro/kernel/codegen.py) transcribed over C
   accumulators: bitwise AND/OR folds are order-insensitive, and the
   order-sensitive XOR chains iterate fanins in CSR order, which is plan
   fanin order, so every pass stays bit-identical to the Python
   oracles.  The primary inputs are input_sig in circuit order, and
   input_pos maps a signal to its position there, -1 for the others. */
typedef struct {
  long n_signals;
  long n_plan;
  const int32_t *plan_out;
  const int8_t *code;
  const int32_t *fanin_off;
  const int32_t *fanin_idx;
  const int32_t *fanout_off;
  const int32_t *fanout_idx;
  const int8_t *ctrl;
  long n_inputs;
  const int32_t *input_sig;
  const int32_t *input_pos;
} repro_plan;


/* The TPG implication engine: one repro_tpg per TpgEngine (the C half
   of a TpgState, or the engine a campaign executor reuses for every
   round, reset between shards) of at most 64 lanes, so every
   plane of a signal is one u64 word.  It holds
   the state the Python engine of repro.core.state keeps in lists
   and sets -- planes, conflict lanes and sites, the FIFO worklist, the
   assignment trail and the justification cache -- and runs the same
   steps in the same order: assign ORs additions in and enqueues the
   signal's own gate and its fanout gates, imply pops gates FIFO,
   merges the forward evaluation into the output and the unique backward
   implications (all computed before any is applied) into the inputs.
   The rules are the Algebra rules of repro.logic.three_valued
   and repro.logic.seven_valued transcribed over words (OR/NOR
   and NAND/OR/XNOR see value-swapped inputs/outputs, as the Python
   dispatchers arrange); XOR chains fold in fanin CSR order.  A
   checkpoint mark is (trail length, conflict mask).
   repro_tpg_sensitize applies a path's nonrobust sensitization as
   the same sequence of assign steps the Python sensitizer's list
   feeds one by one; robust sensitization stays in Python.
   repro_tpg_decide is the FPTPG/APTPG decision step of
   repro.core.backtrace -- the first unjustified signal, its
   objective and lane group, the backtrace to a primary input -- with its
   result in the d_* fields.  On top of it sit the generation shards,
   each one call with its result in the r_* fields:
   repro_tpg_search is APTPG's checkpointed search loop
   (_search of repro.core.aptpg; its backtrack stack is
   bk), repro_tpg_aptpg a fault's whole nonrobust APTPG -- the
   XOR sides from the fanin CSR, the chunked polarity screen (survivors
   in surv) and every survivor's search, on this one engine reset
   between states -- and repro_tpg_fptpg an FPTPG batch; a campaign
   runs a whole round of them as one repro_tpg_round, its verdicts,
   tested rows and summed counters in the g_* fields.  The
   scratch (backtrace flags, node and candidate stacks, the backtrack
   stack, the survivors, the round's outputs) lives here too, grown on
   demand: states share nothing mutable, so each can run on its own
   thread. */
typedef struct {
  const repro_plan *p;
  long n_planes;
  int use_backward;
  uint64_t mask;
  uint64_t conflict_mask;
  int32_t sites[64];
  long implication_passes;
  long assignments;
  uint64_t *planes;
  int32_t *queue;
  long q_head, q_len;
  uint8_t *queued;
  int32_t *trail_sig;
  uint64_t *trail_old;
  long trail_len, trail_cap;
  uint64_t *unjust;
  int32_t *dirty;
  uint8_t *is_dirty;
  long n_dirty;
  uint64_t *work;
  int32_t *scan_sig;
  uint64_t *scan_mask;
  int32_t d_rep, d_pi, d_value, d_stable;
  uint64_t d_lanes;
  uint8_t *bt_flag;
  long *bt_touched, *bt_nodes, *bt_cands;
  long n_touched, cap_touched, depth, cap_nodes, n_cands, cap_cands;
  uint64_t *bk;
  long n_bk, cap_bk;
  long *surv;
  long n_surv, cap_surv;
  long r_lane, r_width, r_decisions, r_backtracks, r_splits, r_passes;
  uint64_t r_decided, r_justified, r_xor_lanes;
  double r_seconds;
  uint8_t *g_status, *g_rows;
  int32_t *g_pos;
  long cap_status, cap_rows, cap_pos;
  long g_tested, g_shard, g_decisions, g_backtracks, g_passes;
  double g_seconds;
} repro_tpg;


void repro_logic_pass(const repro_plan *p, u64 *V, long n) {
  long t, w, k;
  for (t = 0; t < p->n_plan; t++) {
    long out = p->plan_out[t];
    int code = p->code[out];
    const int32_t *fi = p->fanin_idx + p->fanin_off[out];
    long nf = p->fanin_off[out + 1] - p->fanin_off[out];
    u64 *dst = V + out * n;
    for (w = 0; w < n; w++) {
      u64 acc = V[(long)fi[0] * n + w];
      switch (code) {
        case 3: case 4: /* AND / NAND */
          for (k = 1; k < nf; k++) acc &= V[(long)fi[k] * n + w];
          if (code == 4) acc = ~acc;
          break;
        case 5: case 6: /* OR / NOR */
          for (k = 1; k < nf; k++) acc |= V[(long)fi[k] * n + w];
          if (code == 6) acc = ~acc;
          break;
        case 7: case 8: /* XOR / XNOR */
          for (k = 1; k < nf; k++) acc ^= V[(long)fi[k] * n + w];
          if (code == 8) acc = ~acc;
          break;
        case 2: acc = ~acc; break; /* NOT */
        default: break;            /* BUF */
      }
      dst[w] = acc;
    }
  }
}

/* One 7-valued AND/OR-family gate: the n-ary accumulator folds of the
   fused emitters, inversion as a final zero/one plane swap. */
static void _p7_andor(u64 *Z, u64 *O, u64 *S, u64 *I, long out,
                      int or_family, int invert,
                      const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    u64 rz, ro, rs, ri;
    if (or_family) {
      u64 zA = ~(u64)0, oO = 0, zsA = ~(u64)0, osO = 0;
      u64 i0A = ~(u64)0, i1O = 0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w];
        u64 zs = z & s, os = o & s;
        zA &= z; oO |= o; zsA &= zs; osO |= os;
        i0A &= zs | (o & i); i1O |= os | (z & i);
      }
      rz = zA; ro = oO; rs = zsA | osO;
      ri = ((ro & i0A) | (rz & i1O)) & ~rs;
    } else {
      u64 zO = 0, oA = ~(u64)0, zsO = 0, osA = ~(u64)0;
      u64 i0O = 0, i1A = ~(u64)0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w];
        u64 zs = z & s, os = o & s;
        zO |= z; oA &= o; zsO |= zs; osA &= os;
        i0O |= zs | (o & i); i1A &= os | (z & i);
      }
      rz = zO; ro = oA; rs = zsO | osA;
      ri = ((ro & i0O) | (rz & i1A)) & ~rs;
    }
    if (invert) { u64 tmp = rz; rz = ro; ro = tmp; }
    Z[out * n + w] = rz; O[out * n + w] = ro;
    S[out * n + w] = rs; I[out * n + w] = ri;
  }
}

/* One 7-valued XOR-family gate: the emitters' left-fold binary chain
   in fanin order (the XOR calculus is order-sensitive only in its
   intermediate names, but the fold order is kept identical anyway). */
static void _p7_xor(u64 *Z, u64 *O, u64 *S, u64 *I, long out, int invert,
                    const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    long fs = fi[0];
    u64 az = Z[fs * n + w], ao = O[fs * n + w];
    u64 as = S[fs * n + w], ai = I[fs * n + w];
    for (k = 1; k < nf; k++) {
      fs = fi[k];
      u64 z = Z[fs * n + w], o = O[fs * n + w];
      u64 s = S[fs * n + w], i = I[fs * n + w];
      u64 x0 = (az & as) | (ao & ai);
      u64 x1 = (ao & as) | (az & ai);
      u64 y0 = (z & s) | (o & i);
      u64 y1 = (o & s) | (z & i);
      u64 tz = (az & z) | (ao & o);
      u64 to = (az & o) | (ao & z);
      u64 ts = as & s;
      u64 ti = ((to & ((x0 & y0) | (x1 & y1))) |
                (tz & ((x0 & y1) | (x1 & y0)))) & ~ts;
      az = tz; ao = to; as = ts; ai = ti;
    }
    if (invert) { u64 tmp = az; az = ao; ao = tmp; }
    Z[out * n + w] = az; O[out * n + w] = ao;
    S[out * n + w] = as; I[out * n + w] = ai;
  }
}

void repro_planes7_pass(const repro_plan *p, u64 *Z, u64 *O, u64 *S,
                        u64 *I, long n) {
  long t, w;
  for (t = 0; t < p->n_plan; t++) {
    long out = p->plan_out[t];
    int code = p->code[out];
    const int32_t *fi = p->fanin_idx + p->fanin_off[out];
    long nf = p->fanin_off[out + 1] - p->fanin_off[out];
    if (code <= 2) { /* BUF / NOT: copy, NOT swaps zero/one */
      long src = fi[0];
      for (w = 0; w < n; w++) {
        u64 z = Z[src * n + w], o = O[src * n + w];
        Z[out * n + w] = code == 2 ? o : z;
        O[out * n + w] = code == 2 ? z : o;
        S[out * n + w] = S[src * n + w];
        I[out * n + w] = I[src * n + w];
      }
    } else if (code <= 6) {
      _p7_andor(Z, O, S, I, out, code >= 5, code == 4 || code == 6,
                fi, nf, n);
    } else {
      _p7_xor(Z, O, S, I, out, code == 8, fi, nf, n);
    }
  }
}

/* 10-valued AND/OR-family gate: the 7-valued folds plus the
   hazard-free plane (held-at-controlling | no-dynamic | no-inverse
   hazard), ORing the output stability plane in at the end. */
static void _p10_andor(u64 *Z, u64 *O, u64 *S, u64 *I, u64 *H, long out,
                       int or_family, int invert,
                       const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    u64 rz, ro, rs, ri;
    u64 ndA = ~(u64)0, niA = ~(u64)0, held;
    if (or_family) {
      u64 zA = ~(u64)0, oO = 0, zsA = ~(u64)0, osO = 0;
      u64 i0A = ~(u64)0, i1O = 0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w], h = H[fs * n + w];
        u64 zs = z & s, os = o & s;
        zA &= z; oO |= o; zsA &= zs; osO |= os;
        i0A &= zs | (o & i); i1O |= os | (z & i);
        ndA &= h & (s | o); niA &= h & (s | z);
      }
      rz = zA; ro = oO; rs = zsA | osO;
      ri = ((ro & i0A) | (rz & i1O)) & ~rs;
      held = osO;
    } else {
      u64 zO = 0, oA = ~(u64)0, zsO = 0, osA = ~(u64)0;
      u64 i0O = 0, i1A = ~(u64)0;
      for (k = 0; k < nf; k++) {
        long fs = fi[k];
        u64 z = Z[fs * n + w], o = O[fs * n + w];
        u64 s = S[fs * n + w], i = I[fs * n + w], h = H[fs * n + w];
        u64 zs = z & s, os = o & s;
        zO |= z; oA &= o; zsO |= zs; osA &= os;
        i0O |= zs | (o & i); i1A &= os | (z & i);
        ndA &= h & (s | o); niA &= h & (s | z);
      }
      rz = zO; ro = oA; rs = zsO | osA;
      ri = ((ro & i0O) | (rz & i1A)) & ~rs;
      held = zsO;
    }
    if (invert) { u64 tmp = rz; rz = ro; ro = tmp; }
    Z[out * n + w] = rz; O[out * n + w] = ro;
    S[out * n + w] = rs; I[out * n + w] = ri;
    H[out * n + w] = held | ndA | niA | rs;
  }
}

/* 10-valued XOR-family gate: 7-valued fold plus the hazard-free rule
   (an input's hazard is masked only when every *other* input is
   stable).  The Python emitters spell that rule with prefix/suffix
   stability products; here it is part of the same left fold, with no
   buffer: ``clean`` holds, over the inputs folded so far, the OR of
   each one's hazard-free plane ANDed with the stability of all the
   others, and the fold's own ``as`` is their joint stability -- any
   arity, bit-identical. */
static void _p10_xor(u64 *Z, u64 *O, u64 *S, u64 *I, u64 *H, long out,
                     int invert, const int32_t *fi, long nf, long n) {
  long w, k;
  for (w = 0; w < n; w++) {
    long fs = fi[0];
    u64 az = Z[fs * n + w], ao = O[fs * n + w];
    u64 as = S[fs * n + w], ai = I[fs * n + w];
    u64 clean = H[fs * n + w];
    for (k = 1; k < nf; k++) {
      fs = fi[k];
      u64 z = Z[fs * n + w], o = O[fs * n + w];
      u64 s = S[fs * n + w], i = I[fs * n + w];
      u64 x0 = (az & as) | (ao & ai);
      u64 x1 = (ao & as) | (az & ai);
      u64 y0 = (z & s) | (o & i);
      u64 y1 = (o & s) | (z & i);
      u64 tz = (az & z) | (ao & o);
      u64 to = (az & o) | (ao & z);
      u64 ts = as & s;
      u64 ti = ((to & ((x0 & y0) | (x1 & y1))) |
                (tz & ((x0 & y1) | (x1 & y0)))) & ~ts;
      clean = (clean & s) | (as & H[fs * n + w]);
      az = tz; ao = to; as = ts; ai = ti;
    }
    if (invert) { u64 tmp = az; az = ao; ao = tmp; }
    Z[out * n + w] = az; O[out * n + w] = ao;
    S[out * n + w] = as; I[out * n + w] = ai;
    H[out * n + w] = as | clean;
  }
}

void repro_planes10_pass(const repro_plan *p, u64 *Z, u64 *O, u64 *S,
                         u64 *I, u64 *H, long n) {
  long t, w;
  for (t = 0; t < p->n_plan; t++) {
    long out = p->plan_out[t];
    int code = p->code[out];
    const int32_t *fi = p->fanin_idx + p->fanin_off[out];
    long nf = p->fanin_off[out + 1] - p->fanin_off[out];
    if (code <= 2) { /* BUF / NOT: h-plane is inversion-invariant */
      long src = fi[0];
      for (w = 0; w < n; w++) {
        u64 z = Z[src * n + w], o = O[src * n + w];
        Z[out * n + w] = code == 2 ? o : z;
        O[out * n + w] = code == 2 ? z : o;
        S[out * n + w] = S[src * n + w];
        I[out * n + w] = I[src * n + w];
        H[out * n + w] = H[src * n + w] | S[src * n + w];
      }
    } else if (code <= 6) {
      _p10_andor(Z, O, S, I, H, out, code >= 5, code == 4 || code == 6,
                 fi, nf, n);
    } else {
      _p10_xor(Z, O, S, I, H, out, code == 8, fi, nf, n);
    }
  }
}


/* The fault walks share side-input terms across the batch, as the
   Python batched walks (repro.sim.delay_sim._detection_masks_
   batched) do: an on-path edge on -> sig is identified by the CSR
   position of on in sig's fanin, its term is computed on first
   use into the next free row of the caller's terms buffer and its
   row recorded in slot (caller-filled with -1; -2 marks an edge
   with no side condition).  A path step whose on is not a fanin of
   sig uses the spare row after the last edge, recomputed each time.
   Each fault's mask is built in the next free output row, ANDing the
   early exit into the same loop, and kept -- with its fault index --
   only when some lane survives, so the caller converts detected rows
   only.  The faults are rows of a repro.paths.FaultTable (a
   signal CSR plus launch values); rows gathers the walked ones by
   row number, NULL meaning rows 0..n_faults-1, and the fault index
   kept is the position in rows.  Rows and ids are checked in
   Python before the call. */
#define REPRO_NO_TERM (-2)

/* The memo key of the on-path edge on -> sig: the CSR position of the
   first ``on`` in sig's fanin, or -1 when ``on`` does not feed sig. */
static long _edge_id(const repro_plan *p, long on, long sig) {
  long k;
  for (k = p->fanin_off[sig]; k < p->fanin_off[sig + 1]; k++)
    if (p->fanin_idx[k] == on) return k;
  return -1;
}

static const u64 *_detect_term(const repro_plan *p, const u64 *Z,
                               const u64 *O, const u64 *S, long n,
                               int robust, long on, long sig,
                               int32_t *slot, u64 *terms, long *used) {
  long e = _edge_id(p, on, sig), w, k;
  if (e >= 0 && slot[e] == REPRO_NO_TERM) return 0;
  if (e >= 0 && slot[e] >= 0) return terms + slot[e] * n;
  u64 *t = terms + (e >= 0 ? *used : p->fanin_off[p->n_signals]) * n;
  int c = p->ctrl[sig], has_side = 0;
  for (w = 0; w < n; w++) t[w] = ~(u64)0;
  for (k = p->fanin_off[sig]; k < p->fanin_off[sig + 1]; k++) {
    long fs = p->fanin_idx[k];
    if (fs == on) continue;
    if (c < 0) {
      /* XOR-like: nonrobust imposes nothing, robust needs glitch-free
         (stable) side inputs */
      if (robust) {
        has_side = 1;
        for (w = 0; w < n; w++) t[w] &= S[fs * n + w];
      }
      continue;
    }
    /* nc = 1 - c: the plane holding the non-controlling final */
    const u64 *ncp = c ? Z : O;
    has_side = 1;
    if (robust)
      for (w = 0; w < n; w++)
        t[w] &= ncp[fs * n + w] & (S[fs * n + w] | ~ncp[on * n + w]);
    else
      for (w = 0; w < n; w++) t[w] &= ncp[fs * n + w];
  }
  if (e >= 0) slot[e] = has_side ? (int32_t)(*used)++ : REPRO_NO_TERM;
  return has_side ? t : 0;
}

/* The word loops of the walks, written for gcc's -O2 vectorizer: four
   independent words per step, each with its own accumulator, then a
   tail loop over the last n % 4 words (a one-word walk runs only the
   tail). */

/* det = a & b & c over n words; returns whether any lane is set. */
static u64 _launch_rows(u64 *restrict det, const u64 *restrict a,
                        const u64 *restrict b, const u64 *restrict c,
                        long n) {
  u64 any0 = 0, any1 = 0, any2 = 0, any3 = 0;
  long w;
  for (w = 0; w + 4 <= n; w += 4) {
    u64 d0 = a[w] & b[w] & c[w], d1 = a[w + 1] & b[w + 1] & c[w + 1];
    u64 d2 = a[w + 2] & b[w + 2] & c[w + 2];
    u64 d3 = a[w + 3] & b[w + 3] & c[w + 3];
    det[w] = d0; det[w + 1] = d1; det[w + 2] = d2; det[w + 3] = d3;
    any0 |= d0; any1 |= d1; any2 |= d2; any3 |= d3;
  }
  for (; w < n; w++) {
    det[w] = a[w] & b[w] & c[w];
    any0 |= det[w];
  }
  return any0 | any1 | any2 | any3;
}

/* det &= t over n words; returns whether any lane survives. */
static u64 _and_rows(u64 *restrict det, const u64 *restrict t, long n) {
  u64 any0 = 0, any1 = 0, any2 = 0, any3 = 0;
  long w;
  for (w = 0; w + 4 <= n; w += 4) {
    u64 d0 = det[w] & t[w], d1 = det[w + 1] & t[w + 1];
    u64 d2 = det[w + 2] & t[w + 2], d3 = det[w + 3] & t[w + 3];
    det[w] = d0; det[w + 1] = d1; det[w + 2] = d2; det[w + 3] = d3;
    any0 |= d0; any1 |= d1; any2 |= d2; any3 |= d3;
  }
  for (; w < n; w++) {
    det[w] &= t[w];
    any0 |= det[w];
  }
  return any0 | any1 | any2 | any3;
}

/* One fault's mask into det: the launch at the path input, then each
   on-path edge's side term, until no lane survives.  Returns whether
   some lane does. */
static u64 _detect_fault(const repro_plan *p, const u64 *Z, const u64 *O,
                         const u64 *S, const u64 *I, long n,
                         const int32_t *path, long plen, int final_one,
                         int robust, const u64 *valid, int32_t *slot,
                         u64 *terms, long *used, u64 *det) {
  const u64 *ins = I + (long)path[0] * n;
  const u64 *launch = (final_one ? O : Z) + (long)path[0] * n;
  u64 any = _launch_rows(det, ins, launch, valid, n);
  long q;
  for (q = 1; q < plen && any; q++) {
    const u64 *t = _detect_term(p, Z, O, S, n, robust, path[q - 1],
                                path[q], slot, terms, used);
    if (t) any = _and_rows(det, t, n);
  }
  return any;
}

long repro_detect_walk(const repro_plan *p, const u64 *Z, const u64 *O,
                       const u64 *S, const u64 *I, long n,
                       const int32_t *path_flat, const int32_t *path_off,
                       const uint8_t *final_one, const int32_t *rows,
                       long n_faults, int robust,
                       const u64 *valid, int32_t *slot, u64 *terms,
                       u64 *out, int32_t *out_idx) {
  long f, used = 0, n_det = 0;
  for (f = 0; f < n_faults; f++) {
    long r = rows ? rows[f] : f;
    if (_detect_fault(p, Z, O, S, I, n, path_flat + path_off[r],
                      path_off[r + 1] - path_off[r], final_one[r], robust,
                      valid, slot, terms, &used, out + n_det * n))
      out_idx[n_det++] = (int32_t)f;
  }
  return n_det;
}

/* (nonrobust, robust, hazard-free-robust) side terms of one edge, as
   three consecutive rows. */
static const u64 *_strength_term(const repro_plan *p, const u64 *Z,
                                 const u64 *O, const u64 *S,
                                 const u64 *H, long n, long on, long sig,
                                 int32_t *slot, u64 *terms, long *used) {
  long e = _edge_id(p, on, sig), w, k;
  if (e >= 0 && slot[e] == REPRO_NO_TERM) return 0;
  if (e >= 0 && slot[e] >= 0) return terms + slot[e] * 3 * n;
  u64 *nr = terms + (e >= 0 ? *used : p->fanin_off[p->n_signals]) * 3 * n;
  u64 *r = nr + n, *st = r + n;
  int c = p->ctrl[sig], has_side = 0;
  for (w = 0; w < 3 * n; w++) nr[w] = ~(u64)0;
  for (k = p->fanin_off[sig]; k < p->fanin_off[sig + 1]; k++) {
    long fs = p->fanin_idx[k];
    if (fs == on) continue;
    has_side = 1;
    if (c < 0) {
      for (w = 0; w < n; w++) {
        r[w] &= S[fs * n + w];
        st[w] &= S[fs * n + w];
      }
      continue;
    }
    const u64 *ncp = c ? Z : O;
    for (w = 0; w < n; w++) {
      u64 has_nc = ncp[fs * n + w];
      u64 stable_where = S[fs * n + w] | ~ncp[on * n + w];
      nr[w] &= has_nc;
      r[w] &= has_nc & stable_where;
      st[w] &= has_nc & H[fs * n + w] & stable_where;
    }
  }
  if (e >= 0) slot[e] = has_side ? (int32_t)(*used)++ : REPRO_NO_TERM;
  return has_side ? nr : 0;
}

/* Early exit on the nonrobust mask is safe for all three classes:
   hazard-free-robust <= robust <= nonrobust lane-wise. */
long repro_strength_walk(const repro_plan *p, const u64 *Z, const u64 *O,
                         const u64 *S, const u64 *I, const u64 *H, long n,
                         const int32_t *path_flat, const int32_t *path_off,
                         const uint8_t *final_one, const int32_t *rows,
                         long n_faults,
                         const u64 *valid, int32_t *slot, u64 *terms,
                         u64 *out_nr, u64 *out_r, u64 *out_st,
                         int32_t *out_idx) {
  long f, q, used = 0, n_det = 0;
  for (f = 0; f < n_faults; f++) {
    long row = rows ? rows[f] : f;
    const int32_t *path = path_flat + path_off[row];
    long plen = path_off[row + 1] - path_off[row];
    u64 *nr = out_nr + n_det * n;
    u64 *r = out_r + n_det * n;
    u64 *st = out_st + n_det * n;
    const u64 *ins = I + (long)path[0] * n;
    const u64 *launch = (final_one[row] ? O : Z) + (long)path[0] * n;
    u64 any = _launch_rows(nr, ins, launch, valid, n);
    memcpy(r, nr, (size_t)n * sizeof(u64));
    memcpy(st, nr, (size_t)n * sizeof(u64));
    for (q = 1; q < plen && any; q++) {
      const u64 *t = _strength_term(p, Z, O, S, H, n, path[q - 1],
                                    path[q], slot, terms, &used);
      if (!t) continue;
      _and_rows(r, t + n, n);
      _and_rows(st, t + 2 * n, n);
      any = _and_rows(nr, t, n);
    }
    if (any) out_idx[n_det++] = (int32_t)f;
  }
  return n_det;
}

/* Cone step fanin encoding: value >= 0 is a cone-local scratch slot,
   value < 0 is -(signal + 1) into the good-machine slab. */
static u64 _cone_load(const u64 *good, const u64 *scratch, long n,
                      int32_t ref, long w) {
  if (ref >= 0) return scratch[(long)ref * n + w];
  return good[(long)(-ref - 1) * n + w];
}

void repro_stuck_cone(const u64 *good, long n,
                      const int32_t *codes, const int32_t *outs,
                      const int32_t *fanin_flat, const int32_t *fanin_off,
                      long n_steps, u64 *scratch, u64 forced,
                      const int32_t *po_sig, const int32_t *po_slot,
                      long n_pos, u64 *diff) {
  long t, w, k;
  for (w = 0; w < n; w++) scratch[w] = forced; /* slot 0 = fault site */
  for (t = 0; t < n_steps; t++) {
    int code = codes[t];
    const int32_t *fi = fanin_flat + fanin_off[t];
    long nf = fanin_off[t + 1] - fanin_off[t];
    u64 *dst = scratch + (long)outs[t] * n;
    for (w = 0; w < n; w++) {
      u64 acc = _cone_load(good, scratch, n, fi[0], w);
      switch (code) {
        case 3: case 4: /* AND / NAND */
          for (k = 1; k < nf; k++)
            acc &= _cone_load(good, scratch, n, fi[k], w);
          if (code == 4) acc = ~acc;
          break;
        case 5: case 6: /* OR / NOR */
          for (k = 1; k < nf; k++)
            acc |= _cone_load(good, scratch, n, fi[k], w);
          if (code == 6) acc = ~acc;
          break;
        case 7: case 8: /* XOR / XNOR */
          for (k = 1; k < nf; k++)
            acc ^= _cone_load(good, scratch, n, fi[k], w);
          if (code == 8) acc = ~acc;
          break;
        case 2: /* NOT */
          acc = ~acc;
          break;
        default: /* BUF (1): acc already holds the input */
          break;
      }
      dst[w] = acc;
    }
  }
  for (w = 0; w < n; w++) diff[w] = 0;
  for (k = 0; k < n_pos; k++) {
    const u64 *g = good + (long)po_sig[k] * n;
    const u64 *v = scratch + (long)po_slot[k] * n;
    for (w = 0; w < n; w++) diff[w] |= g[w] ^ v[w];
  }
}


void repro_tpg_free(repro_tpg *st) {
  if (!st) return;
  free(st->planes); free(st->queue); free(st->queued);
  free(st->trail_sig); free(st->trail_old);
  free(st->unjust); free(st->dirty); free(st->is_dirty);
  free(st->work); free(st->scan_sig); free(st->scan_mask);
  free(st->bt_flag); free(st->bt_touched); free(st->bt_nodes);
  free(st->bt_cands); free(st->bk); free(st->surv);
  free(st->g_status); free(st->g_rows); free(st->g_pos);
  free(st);
}

repro_tpg *repro_tpg_new(const repro_plan *p, long n_planes, long width,
                         int use_backward) {
  long n = p->n_signals, s, max_nf = 1;
  repro_tpg *st = calloc(1, sizeof *st);
  if (!st) return 0;
  for (s = 0; s < n; s++)
    if (p->fanin_off[s + 1] - p->fanin_off[s] > max_nf)
      max_nf = p->fanin_off[s + 1] - p->fanin_off[s];
  st->p = p;
  st->n_planes = n_planes;
  st->use_backward = use_backward;
  st->mask = width >= 64 ? ~(u64)0 : ((u64)1 << width) - 1;
  st->trail_cap = 64;
  /* n + 1: never a zero-size request */
  st->planes = calloc((n + 1) * n_planes, sizeof(u64));
  st->queue = malloc((n + 1) * sizeof(int32_t));
  st->queued = calloc(n + 1, 1);
  st->trail_sig = malloc(st->trail_cap * sizeof(int32_t));
  st->trail_old = malloc(st->trail_cap * n_planes * sizeof(u64));
  st->unjust = calloc(n + 1, sizeof(u64));
  st->dirty = malloc((n + 1) * sizeof(int32_t));
  st->is_dirty = calloc(n + 1, 1);
  /* backward: three prefix products plus the additions of every fanin */
  st->work = malloc((3 * (max_nf + 1) + 4 * max_nf) * sizeof(u64));
  st->scan_sig = malloc((n + 1) * sizeof(int32_t));
  st->scan_mask = malloc((n + 1) * sizeof(u64));
  if (!st->planes || !st->queue || !st->queued || !st->trail_sig ||
      !st->trail_old || !st->unjust || !st->dirty || !st->is_dirty ||
      !st->work || !st->scan_sig || !st->scan_mask) {
    repro_tpg_free(st);
    return 0;
  }
  return st;
}

static void _tpg_dirty(repro_tpg *st, long s) {
  if (!st->is_dirty[s]) {
    st->is_dirty[s] = 1;
    st->dirty[st->n_dirty++] = (int32_t)s;
  }
}

static void _tpg_push(repro_tpg *st, long s) {
  long tail = st->q_head + st->q_len;
  if (tail >= st->p->n_signals) tail -= st->p->n_signals;
  st->queue[tail] = (int32_t)s;
  st->q_len++;
  st->queued[s] = 1;
}

static void _tpg_drain(repro_tpg *st) {
  long n = st->p->n_signals;
  while (st->q_len) {
    st->queued[st->queue[st->q_head]] = 0;
    if (++st->q_head == n) st->q_head = 0;
    st->q_len--;
  }
}

/* Schedule s's own gate and its fanout gates; mark them dirty. */
static void _tpg_enqueue_around(repro_tpg *st, long s) {
  const repro_plan *p = st->p;
  long k;
  _tpg_dirty(st, s);
  if (!st->queued[s] && p->code[s] != 0) _tpg_push(st, s);
  for (k = p->fanout_off[s]; k < p->fanout_off[s + 1]; k++) {
    long f = p->fanout_idx[k];
    _tpg_dirty(st, f);
    if (!st->queued[f]) _tpg_push(st, f);
  }
}

/* OR add into s's planes: 1 on change, 0 without, -1 when the trail
   cannot grow (nothing is changed then). */
static int _tpg_assign(repro_tpg *st, long s, const u64 *add) {
  long np = st->n_planes, k;
  u64 *cur = st->planes + s * np, nw[4], changed = 0, c;
  for (k = 0; k < np; k++) {
    nw[k] = (cur[k] | add[k]) & st->mask;
    changed |= nw[k] ^ cur[k];
  }
  if (!changed) return 0;
  if (st->trail_len == st->trail_cap) {
    long cap = 2 * st->trail_cap;
    int32_t *sig = realloc(st->trail_sig, cap * sizeof(int32_t));
    if (!sig) return -1;
    st->trail_sig = sig;
    u64 *old = realloc(st->trail_old, cap * np * sizeof(u64));
    if (!old) return -1;
    st->trail_old = old;
    st->trail_cap = cap;
  }
  st->trail_sig[st->trail_len] = (int32_t)s;
  for (k = 0; k < np; k++) {
    st->trail_old[st->trail_len * np + k] = cur[k];
    cur[k] = nw[k];
  }
  st->trail_len++;
  c = nw[0] & nw[1];
  if (np == 4) c |= nw[2] & nw[3];
  c &= ~st->conflict_mask;
  if (c) {
    st->conflict_mask |= c;
    for (k = 0; k < 64; k++)
      if (c >> k & 1) st->sites[k] = (int32_t)s;
  }
  st->assignments++;
  _tpg_enqueue_around(st, s);
  return 1;
}

int repro_tpg_assign2(repro_tpg *st, long s, uint64_t a0, uint64_t a1) {
  u64 add[2] = {a0, a1};
  return _tpg_assign(st, s, add);
}

int repro_tpg_assign4(repro_tpg *st, long s, uint64_t a0, uint64_t a1,
                      uint64_t a2, uint64_t a3) {
  u64 add[4] = {a0, a1, a2, a3};
  return _tpg_assign(st, s, add);
}

/* Algebra.forward of gate s over the current planes, into out. */
static void _tpg_forward(const repro_tpg *st, long s, u64 *out) {
  const repro_plan *p = st->p;
  const u64 *P = st->planes;
  int code = p->code[s];
  const int32_t *fi = p->fanin_idx + p->fanin_off[s];
  long nf = p->fanin_off[s + 1] - p->fanin_off[s], k;
  u64 z, o, t;
  if (st->n_planes == 2) {
    const u64 *a = P + (long)fi[0] * 2;
    z = a[0]; o = a[1];
    if (code == 3 || code == 4) {        /* AND / NAND */
      for (k = 1; k < nf; k++) {
        a = P + (long)fi[k] * 2;
        z |= a[0]; o &= a[1];
      }
    } else if (code == 5 || code == 6) { /* OR / NOR */
      for (k = 1; k < nf; k++) {
        a = P + (long)fi[k] * 2;
        z &= a[0]; o |= a[1];
      }
    } else if (code >= 7) {              /* XOR / XNOR: fold in order */
      for (k = 1; k < nf; k++) {
        a = P + (long)fi[k] * 2;
        t = (z & a[0]) | (o & a[1]);
        o = (z & a[1]) | (o & a[0]);
        z = t;
      }
    }
    if (!(code & 1)) { t = z; z = o; o = t; } /* NOT NAND NOR XNOR */
    out[0] = z; out[1] = o;
    return;
  }
  const u64 *a = P + (long)fi[0] * 4;
  u64 s_ = a[2], i = a[3];
  z = a[0]; o = a[1];
  if (code >= 3 && code <= 6) {
    int or_family = code >= 5;
    /* AND: zeros |, ones &, stable0 |, stable1 &, init0 |, init1 &;
       OR swaps every & and | */
    u64 zs = z & s_, os = o & s_;
    u64 i0 = zs | (o & i), i1 = os | (z & i);
    for (k = 1; k < nf; k++) {
      a = P + (long)fi[k] * 4;
      u64 bzs = a[0] & a[2], bos = a[1] & a[2];
      u64 bi0 = bzs | (a[1] & a[3]), bi1 = bos | (a[0] & a[3]);
      if (or_family) {
        z &= a[0]; o |= a[1]; zs &= bzs; os |= bos; i0 &= bi0; i1 |= bi1;
      } else {
        z |= a[0]; o &= a[1]; zs |= bzs; os &= bos; i0 |= bi0; i1 &= bi1;
      }
    }
    s_ = zs | os;
    i = ((o & i0) | (z & i1)) & ~s_;
  } else if (code >= 7) {
    for (k = 1; k < nf; k++) {
      a = P + (long)fi[k] * 4;
      u64 x0 = (z & s_) | (o & i), x1 = (o & s_) | (z & i);
      u64 y0 = (a[0] & a[2]) | (a[1] & a[3]);
      u64 y1 = (a[1] & a[2]) | (a[0] & a[3]);
      u64 tz = (z & a[0]) | (o & a[1]), to = (z & a[1]) | (o & a[0]);
      u64 ts = s_ & a[2];
      i = ((to & ((x0 & y0) | (x1 & y1))) |
           (tz & ((x0 & y1) | (x1 & y0)))) & ~ts;
      z = tz; o = to; s_ = ts;
    }
  }
  if (!(code & 1)) { t = z; z = o; o = t; }
  out[0] = z; out[1] = o; out[2] = s_; out[3] = i;
}

/* Algebra.backward of gate s: the additions of fanin k into
   adds[k * n_planes ...].  Suffix products run down from the last
   fanin, prefix products come from the work buffer. */
static void _tpg_backward(repro_tpg *st, long s, u64 *adds) {
  const repro_plan *p = st->p;
  const u64 *P = st->planes, *out = P + s * st->n_planes;
  int code = p->code[s];
  const int32_t *fi = p->fanin_idx + p->fanin_off[s];
  long nf = p->fanin_off[s + 1] - p->fanin_off[s], np = st->n_planes, k;
  u64 mask = st->mask;
  u64 *pre1 = st->work, *pre2 = pre1 + nf + 1, *pre3 = pre2 + nf + 1;
  /* NAND, OR and XNOR see swapped output value planes; OR and NOR see
     swapped input (and addition) value planes */
  int sw_out = code == 4 || code == 5 || code == 8;
  int sw_in = code == 5 || code == 6;
  u64 oz = out[sw_out], oo = out[!sw_out];
  if (code <= 2) {                     /* BUF / NOT */
    adds[0] = code == 2 ? out[1] : out[0];
    adds[1] = code == 2 ? out[0] : out[1];
    if (np == 4) { adds[2] = out[2]; adds[3] = out[3]; }
    return;
  }
  pre1[0] = pre2[0] = pre3[0] = mask;
  if (code <= 6 && np == 2) {          /* AND family, 3-valued */
    u64 suf = mask;
    for (k = 0; k < nf; k++)
      pre1[k + 1] = pre1[k] & P[(long)fi[k] * 2 + !sw_in];
    for (k = nf - 1; k >= 0; k--) {
      adds[k * 2 + sw_in] = oz & pre1[k] & suf;
      adds[k * 2 + !sw_in] = oo;
      suf &= P[(long)fi[k] * 2 + !sw_in];
    }
  } else if (code <= 6) {              /* AND family, 7-valued */
    u64 os = out[2], oi = out[3];
    u64 s1 = oo & os, n0 = oz & os, fa = oz & oi, ri = oo & oi;
    u64 suf1 = mask, suf2 = mask, suf3 = mask;
    for (k = 0; k < nf; k++) {
      const u64 *a = P + (long)fi[k] * 4;
      pre1[k + 1] = pre1[k] & a[!sw_in];
      pre2[k + 1] = pre2[k] & (a[!sw_in] | a[3]);
      pre3[k + 1] = pre3[k] & a[2];
    }
    for (k = nf - 1; k >= 0; k--) {
      const u64 *a = P + (long)fi[k] * 4;
      u64 z = a[sw_in], o = a[!sw_in];
      u64 m = n0 & pre2[k] & suf2;
      adds[k * 4 + sw_in] = (oz & pre1[k] & suf1) | m;
      adds[k * 4 + !sw_in] = oo;
      adds[k * 4 + 2] = s1 | m | (fa & o);
      adds[k * 4 + 3] = (fa & z) | (ri & pre3[k] & suf3);
      suf1 &= o; suf2 &= o | a[3]; suf3 &= a[2];
    }
  } else {                             /* XOR / XNOR */
    u64 ok = oz | oo, suf_k = mask, suf_p = 0, suf_s = mask;
    pre2[0] = 0;                       /* parity of the 1-planes */
    for (k = 0; k < nf; k++) {
      const u64 *a = P + (long)fi[k] * np;
      pre1[k + 1] = pre1[k] & (a[0] | a[1]);
      pre2[k + 1] = pre2[k] ^ a[1];
      if (np == 4) pre3[k + 1] = pre3[k] & a[2];
    }
    for (k = nf - 1; k >= 0; k--) {
      const u64 *a = P + (long)fi[k] * np;
      u64 r = pre2[k] ^ suf_p, act = pre1[k] & suf_k & ok;
      adds[k * np] = ((oo & r) | (oz & ~r)) & act;
      adds[k * np + 1] = ((oo & ~r) | (oz & r)) & act;
      if (np == 4) {
        adds[k * 4 + 2] = out[2];
        adds[k * 4 + 3] = out[3] & pre3[k] & suf_s;
        suf_s &= a[2];
      }
      suf_k &= a[0] | a[1];
      suf_p ^= a[1];
    }
  }
}

int repro_tpg_imply(repro_tpg *st, int stop) {
  const repro_plan *p = st->p;
  u64 fwd[4], *adds;
  while (st->q_len) {
    long s, k, nf;
    if (stop && st->conflict_mask == st->mask) {
      _tpg_drain(st);
      break;
    }
    s = st->queue[st->q_head];
    if (++st->q_head == p->n_signals) st->q_head = 0;
    st->q_len--;
    st->queued[s] = 0;
    if (p->code[s] == 0) continue;
    st->implication_passes++;
    _tpg_forward(st, s, fwd);
    if (_tpg_assign(st, s, fwd) < 0) return -1;
    if (!st->use_backward) continue;
    nf = p->fanin_off[s + 1] - p->fanin_off[s];
    adds = st->work + 3 * (nf + 1);
    _tpg_backward(st, s, adds);
    for (k = 0; k < nf; k++)
      if (_tpg_assign(st, p->fanin_idx[p->fanin_off[s] + k],
                      adds + k * st->n_planes) < 0)
        return -1;
  }
  return 0;
}

int repro_tpg_rollback(repro_tpg *st, long trail_len, uint64_t conflict_mask) {
  const repro_plan *p = st->p;
  long np = st->n_planes, k;
  if (trail_len < 0 || trail_len > st->trail_len) return -1;
  while (st->trail_len > trail_len) {
    long s = st->trail_sig[--st->trail_len];
    for (k = 0; k < np; k++)
      st->planes[s * np + k] = st->trail_old[st->trail_len * np + k];
    _tpg_dirty(st, s);
    for (k = p->fanout_off[s]; k < p->fanout_off[s + 1]; k++)
      _tpg_dirty(st, p->fanout_idx[k]);
  }
  st->conflict_mask = conflict_mask & st->mask;
  _tpg_drain(st);
  return 0;
}

/* Lanes where some assigned output bit of s is not implied forward. */
static u64 _tpg_unjustified(const repro_tpg *st, long s) {
  const u64 *have = st->planes + s * st->n_planes;
  u64 fwd[4], miss = 0;
  long k;
  _tpg_forward(st, s, fwd);
  for (k = 0; k < st->n_planes; k++) miss |= have[k] & ~fwd[k];
  return miss & st->mask;
}

static void _tpg_refresh(repro_tpg *st) {
  long d;
  for (d = 0; d < st->n_dirty; d++) {
    long s = st->dirty[d];
    st->is_dirty[s] = 0;
    if (st->p->code[s] != 0) st->unjust[s] = _tpg_unjustified(st, s);
  }
  st->n_dirty = 0;
}

long repro_tpg_scan(repro_tpg *st, uint64_t live) {
  long s, n = 0;
  _tpg_refresh(st);
  for (s = 0; s < st->p->n_signals; s++) {
    u64 m = st->unjust[s] & live;
    if (m) {
      st->scan_sig[n] = (int32_t)s;
      st->scan_mask[n++] = m;
    }
  }
  return n;
}

uint64_t repro_tpg_all_justified(repro_tpg *st) {
  u64 live = st->mask & ~st->conflict_mask;
  long s;
  if (!live) return 0;
  _tpg_refresh(st);
  for (s = 0; s < st->p->n_signals && live; s++) live &= ~st->unjust[s];
  return live;
}

void repro_tpg_flatten(repro_tpg *st, long lane) {
  long n = st->p->n_signals, k;
  u64 bit = (u64)1 << lane;
  for (k = 0; k < n * st->n_planes; k++)
    st->planes[k] = st->planes[k] & bit ? st->mask : 0;
  if (st->conflict_mask & bit) {
    int32_t site = st->sites[lane];
    for (k = 0; k < 64; k++) st->sites[k] = site;
    st->conflict_mask = st->mask;
  } else {
    st->conflict_mask = 0;
  }
  st->trail_len = 0;
  for (k = 0; k < n; k++) _tpg_dirty(st, k);
}

/* The lanes where XOR side input f is 1: its entry in the side map, 0
   when it has none. */
static u64 _tpg_side(long f, const int32_t *xor_sig, const u64 *xor_lanes,
                     long n_xor) {
  long k;
  for (k = 0; k < n_xor; k++)
    if (xor_sig[k] == f) return xor_lanes[k];
  return 0;
}

/* Nonrobust (3-valued) sensitization of one path in lanes ``lanes``:
   what repro.core.sensitize.sensitize_nonrobust emits, assigned in the
   order it emits it -- the path input, then per on-path gate its
   output's final value and each off-path input in fanin order (the
   non-controlling value, or an XOR side's polarity from the side map).
   The running final value flips at every inverting gate and at every
   XOR side that is 1.  0, -1 when the trail cannot grow, -2 on a
   7-valued engine. */
int repro_tpg_sensitize(repro_tpg *st, const int32_t *path, long plen,
                        int final_one, uint64_t lanes,
                        const int32_t *xor_sig, const uint64_t *xor_lanes,
                        long n_xor) {
  const repro_plan *p = st->p;
  u64 value = final_one ? lanes : 0, add[2];
  long q, k;
  if (st->n_planes != 2) return -2;
  add[0] = lanes ^ value; add[1] = value;
  if (_tpg_assign(st, path[0], add) < 0) return -1;
  for (q = 1; q < plen; q++) {
    long s = path[q], on = path[q - 1];
    int code = p->code[s], c = p->ctrl[s];
    const int32_t *fi = p->fanin_idx + p->fanin_off[s];
    long nf = p->fanin_off[s + 1] - p->fanin_off[s];
    if (code == 2 || code == 4 || code == 6 || code == 8) value ^= lanes;
    if (n_xor && code >= 7)
      for (k = 0; k < nf; k++)
        if (fi[k] != on)
          value ^= _tpg_side(fi[k], xor_sig, xor_lanes, n_xor) & lanes;
    add[0] = lanes ^ value; add[1] = value;
    if (_tpg_assign(st, s, add) < 0) return -1;
    for (k = 0; k < nf; k++) {
      if (fi[k] == on) continue;
      if (c < 0) { /* no controlling value: the side's polarity */
        add[1] = _tpg_side(fi[k], xor_sig, xor_lanes, n_xor) & lanes;
        add[0] = lanes ^ add[1];
      } else {     /* the non-controlling final value */
        add[0] = c ? lanes : 0;
        add[1] = c ? 0 : lanes;
      }
      if (_tpg_assign(st, fi[k], add) < 0) return -1;
    }
  }
  return 0;
}

/* The decision step: repro.core.backtrace's decide over one lane, rep.
   An objective (signal, value, stable) is the key signal * 4 + value * 2
   + stable; bt_flag holds one flag per key, reset through bt_touched. */
#define BT_KEY(s, v, t) ((long)(s) * 4 + (v) * 2 + (t))
#define BT_FAILED 1
#define BT_ON_STACK 2

/* *buf grown to at least need longs (doubling): 0, -1 when it cannot
   grow (*buf is kept then). */
static int _bt_grow(long **buf, long *cap, long need) {
  long c;
  long *grown;
  if (need <= *cap) return 0;
  for (c = *cap ? 2 * *cap : 64; c < need; c *= 2) ;
  grown = realloc(*buf, c * sizeof(long));
  if (!grown) return -1;
  *buf = grown;
  *cap = c;
  return 0;
}

/* Signal f's value in lane: 0, 1, or -1 when unknown or conflicted. */
static int _bt_value(const repro_tpg *st, long f, long lane) {
  const u64 *a = st->planes + f * st->n_planes;
  int z = a[0] >> lane & 1, o = a[1] >> lane & 1;
  return z == o ? -1 : o;
}

/* f can still be made stable in lane: not known-instable. */
static int _bt_free(const repro_tpg *st, long f, long lane) {
  return st->n_planes < 4 || !(st->planes[f * 4 + 3] >> lane & 1);
}

static int _bt_stable(const repro_tpg *st, long f, long lane) {
  return st->n_planes < 4 || (st->planes[f * 4 + 2] >> lane & 1);
}

/* Stable insertion sort of n candidate keys by cost rank r[signal]:
   ascending, or descending (hardest first); ties keep fanin order. */
static void _bt_sort(long *c, long n, const int32_t *r, int hardest_first) {
  long i, j;
  for (i = 1; i < n; i++) {
    long x = c[i];
    int32_t rx = r[x >> 2];
    for (j = i; j > 0; j--) {
      int32_t q = r[c[j - 1] >> 2];
      if (hardest_first ? q >= rx : q <= rx) break;
      c[j] = c[j - 1];
    }
    c[j] = x;
  }
}

/* Append what _candidates yields for internal objective key, in that
   order, to bt_cands.  Eager, which is equivalent: the planes do not
   change during a backtrace.  0, -1 when the stack cannot grow. */
static int _bt_candidates(repro_tpg *st, long key, long lane,
                          const int32_t *rank) {
  const repro_plan *p = st->p;
  long s = key >> 2, n = p->n_signals, k, j, start;
  int val = key >> 1 & 1, stable = key & 1, code = p->code[s];
  const int32_t *fi = p->fanin_idx + p->fanin_off[s];
  long nf = p->fanin_off[s + 1] - p->fanin_off[s];
  long *c;
  if (_bt_grow(&st->bt_cands, &st->cap_cands, st->n_cands + 2 * nf + 1))
    return -1;
  c = st->bt_cands;
  start = st->n_cands;
  if (code == 1 || code == 2) {          /* BUF / NOT */
    c[st->n_cands++] = BT_KEY(fi[0], code == 2 ? 1 - val : val, stable);
  } else if (code <= 6) {                /* AND NAND OR NOR */
    int all = code <= 4, target = code == 4 || code == 6 ? 1 - val : val;
    int want = target == all ? all : !all;
    /* value-unknown inputs: all of them take the non-controlling value,
       hardest first; one controlling input suffices, easiest first */
    for (k = 0; k < nf; k++)
      if (_bt_value(st, fi[k], lane) < 0 &&
          ((target != all && !stable) || _bt_free(st, fi[k], lane)))
        c[st->n_cands++] = BT_KEY(fi[k], want, stable);
    _bt_sort(c + start, st->n_cands - start, rank + want * n, target == all);
    if (stable) {                        /* then the stability chase */
      start = st->n_cands;
      for (k = 0; k < nf; k++)
        if (_bt_value(st, fi[k], lane) == want &&
            !_bt_stable(st, fi[k], lane) && _bt_free(st, fi[k], lane))
          c[st->n_cands++] = BT_KEY(fi[k], want, 1);
      _bt_sort(c + start, st->n_cands - start, rank + want * n, 0);
    }
  } else {                               /* XOR / XNOR */
    int target = code == 8 ? 1 - val : val;
    for (k = 0; k < nf; k++) {
      long chosen = fi[k];
      int parity = 0, complete = 1;
      if (_bt_value(st, chosen, lane) >= 0 ||
          (stable && !_bt_free(st, chosen, lane)))
        continue;
      /* the parity completion over every other fanin, else 0 */
      for (j = 0; j < nf; j++) {
        int v;
        if (fi[j] == chosen) continue;
        v = _bt_value(st, fi[j], lane);
        if (v < 0) { complete = 0; break; }
        parity ^= v;
      }
      c[st->n_cands++] = BT_KEY(chosen, complete ? target ^ parity : 0, stable);
    }
    if (stable)
      for (k = 0; k < nf; k++)
        if (!_bt_stable(st, fi[k], lane) && _bt_free(st, fi[k], lane)) {
          int v = _bt_value(st, fi[k], lane);
          c[st->n_cands++] = BT_KEY(fi[k], v < 0 ? 0 : v, 1);
        }
  }
  return 0;
}

static int _bt_flag_key(repro_tpg *st, long key, uint8_t flag) {
  if (!st->bt_flag[key]) {
    if (_bt_grow(&st->bt_touched, &st->cap_touched, st->n_touched + 1))
      return -1;
    st->bt_touched[st->n_touched++] = key;
  }
  st->bt_flag[key] = flag;
  return 0;
}

/* Open objective key: 1 when it is a primary-input assignment to make
   (into d_pi, d_value, d_stable); 0 when it was failed or on the stack
   already, refuted at its input, or pushed with its candidates; -1 when
   scratch cannot grow.  A node is 4 longs: key, candidate base, cursor,
   candidate end. */
static int _bt_open(repro_tpg *st, long key, long lane, const int32_t *rank) {
  long s = key >> 2, base = st->n_cands, *node;
  int val = key >> 1 & 1, stable = key & 1;
  if (st->bt_flag[key]) return 0;
  if (st->p->code[s] == 0) {
    int cur = _bt_value(st, s, lane);
    int ok = cur < 0 || (cur == val && stable && !_bt_stable(st, s, lane));
    if (ok && (!stable || _bt_free(st, s, lane))) {
      st->d_pi = (int32_t)s;
      st->d_value = val;
      st->d_stable = stable;
      return 1;
    }
    return _bt_flag_key(st, key, BT_FAILED);
  }
  if (_bt_grow(&st->bt_nodes, &st->cap_nodes, 4 * (st->depth + 1)) ||
      _bt_candidates(st, key, lane, rank) ||
      _bt_flag_key(st, key, BT_ON_STACK))
    return -1;
  node = st->bt_nodes + 4 * st->depth++;
  node[0] = key;
  node[1] = node[2] = base;
  node[3] = st->n_cands;
  return 0;
}

/* backtrace from objective root in lane: 1 with the primary-input
   assignment in d_*, 0 when no branch can advance, -1 when scratch
   cannot grow.  An exhausted node is popped and fails. */
static int _bt_run(repro_tpg *st, long root, long lane, const int32_t *rank) {
  int rc;
  long k;
  if (!st->bt_flag) {
    st->bt_flag = calloc(4 * st->p->n_signals + 4, 1);
    if (!st->bt_flag) return -1;
  }
  st->depth = st->n_cands = 0;
  rc = _bt_open(st, root, lane, rank);
  while (!rc && st->depth) {
    long depth = st->depth, *node = st->bt_nodes + 4 * (depth - 1);
    /* a push may move bt_nodes, but it ends the scan of this node */
    while (node[2] < node[3]) {
      rc = _bt_open(st, st->bt_cands[node[2]++], lane, rank);
      if (rc || st->depth != depth) break;
    }
    if (!rc && st->depth == depth) {
      st->depth--;
      st->n_cands = node[1];
      st->bt_flag[node[0]] = BT_FAILED;
    }
  }
  for (k = 0; k < st->n_touched; k++) st->bt_flag[st->bt_touched[k]] = 0;
  st->n_touched = 0;
  return rc;
}

/* One FPTPG/APTPG decision step in lanes (see TpgState.decide): the
   first signal in id order with unjustified live lanes, its lowest such
   lane rep, rep's objective from the miss planes have & ~forward, with
   group the signal's lanes sharing it (computed word-wide), then the
   backtrace in lane rep.  rank holds cc0 then cc1 as dense ranks.
   Returns 0 when no live lane is unjustified, 1 when rep has no
   objective, 2 when the backtrace dead-ends, 3 with a primary-input
   assignment in d_pi, d_value, d_stable; -1 when scratch cannot grow.
   From 1 on, d_rep is rep and d_lanes rep's lane, or the group. */
int repro_tpg_decide(repro_tpg *st, uint64_t lanes, int group,
                     const int32_t *rank) {
  const repro_plan *p = st->p;
  long n = p->n_signals, np = st->n_planes, s, rep, k;
  u64 live = lanes & st->mask & ~st->conflict_mask, found;
  u64 fwd[4], m[4] = {0, 0, 0, 0};
  const u64 *have;
  int val, stable, rc;
  if (!live) return 0;
  _tpg_refresh(st);
  for (s = 0; s < n && !(st->unjust[s] & live); s++) ;
  if (s == n) return 0;
  found = st->unjust[s] & live;
  for (rep = 0; !(found >> rep & 1); rep++) ;
  have = st->planes + s * np;
  _tpg_forward(st, s, fwd);
  for (k = 0; k < np; k++) m[k] = have[k] & ~fwd[k] & st->mask;
  st->d_rep = (int32_t)rep;
  st->d_lanes = (u64)1 << rep;
  stable = np == 4 && (have[2] >> rep & 1);
  if (m[1] >> rep & 1) {
    val = 1;
  } else if (m[0] >> rep & 1) {
    val = 0;
  } else if (m[2] >> rep & 1) {          /* only the stable bit missing */
    val = have[1] >> rep & 1;
    stable = 1;
  } else {
    return 1;
  }
  if (group) {
    u64 need = np == 4 ? have[2] : 0;
    u64 same = (val ? m[1] : m[0] & ~m[1]) & (stable ? need : ~need);
    if (stable) same |= ~m[0] & ~m[1] & m[2] & (val ? have[1] : ~have[1]);
    st->d_lanes = found & same;
  }
  rc = _bt_run(st, BT_KEY(s, val, stable), rep, rank);
  return rc < 0 ? -1 : rc ? 3 : 2;
}

/* The generation shards.  Statuses: */
#define TPG_TESTED 1
#define TPG_REDUNDANT 2
#define TPG_ABORTED 3
/* the widest polarity screen: 2^16 combinations in 1024 chunks */
#define TPG_MAX_XOR_BITS 16

static double _tpg_now(void) {
#ifdef CLOCK_MONOTONIC
  struct timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (double)ts.tv_sec + 1e-9 * (double)ts.tv_nsec;
#else
  return (double)clock() / CLOCKS_PER_SEC;
#endif
}

/* Back to what repro_tpg_new returns, at width lanes: every plane X, no
   worklist, trail, dirty signal, conflict or count.  Scratch stays. */
static void _tpg_reset(repro_tpg *st, long width) {
  long n = st->p->n_signals, d;
  memset(st->planes, 0, (size_t)(n * st->n_planes) * sizeof(u64));
  memset(st->unjust, 0, (size_t)n * sizeof(u64));
  memset(st->sites, 0, sizeof st->sites);
  _tpg_drain(st);
  st->q_head = 0;
  for (d = 0; d < st->n_dirty; d++) st->is_dirty[st->dirty[d]] = 0;
  st->n_dirty = 0;
  st->trail_len = 0;
  st->conflict_mask = 0;
  st->implication_passes = st->assignments = 0;
  st->mask = width >= 64 ? ~(u64)0 : ((u64)1 << width) - 1;
}

/* The lanes whose index has bit k set: the ones half of split_masks. */
static u64 _tpg_split_ones(long k) {
  u64 ones = 0;
  long lane;
  for (lane = 0; lane < 64; lane++)
    if (lane >> k & 1) ones |= (u64)1 << lane;
  return ones;
}

/* Planes assigning primary input pi 0 in lanes zeros and 1 in ones; a
   7-valued stable objective adds the stable bit only outside pi's
   known-instable lanes (pi_assignment_planes, _split_assignment_planes
   of repro.core). */
static void _tpg_pi_planes(const repro_tpg *st, long pi, int stable,
                           u64 zeros, u64 ones, u64 *add) {
  add[0] = zeros;
  add[1] = ones;
  if (st->n_planes == 4) {
    add[2] = stable ? (zeros | ones) & ~st->planes[pi * 4 + 3] : 0;
    add[3] = 0;
  }
}

/* Push a backtrack entry: a mark (trail length, conflict mask) and the
   objective key * 4 + times tried.  0, -1 when the stack cannot grow. */
static int _tpg_bk_push(repro_tpg *st, long trail_len, u64 conflict,
                        long entry) {
  u64 *e;
  if (st->n_bk == st->cap_bk) {
    long cap = st->cap_bk ? 2 * st->cap_bk : 16;
    u64 *grown = realloc(st->bk, (size_t)(3 * cap) * sizeof(u64));
    if (!grown) return -1;
    st->bk = grown;
    st->cap_bk = cap;
  }
  e = st->bk + 3 * st->n_bk++;
  e[0] = (u64)trail_len;
  e[1] = conflict;
  e[2] = (u64)entry;
  return 0;
}

/* APTPG's search on a sensitized state, step for step the loop of
   repro.core.aptpg._search (its oracle).  Imply; every lane conflicting
   is TPG_REDUNDANT.  Then, until a lane is conflict-free and justified
   (TPG_TESTED, the lowest such lane in r_lane), decide in the live
   lanes that are not stuck, without grouping: the first
   floor(log2 width) decisions split the lanes, later ones are uniform,
   under a mark pushed with the objective.  When every lane conflicts,
   pop entries -- each counts against limit, then is rolled back --
   until one tried once is flipped under a fresh mark; an empty stack is
   TPG_REDUNDANT.  Past the limit, with every live lane stuck, without an
   unjustified lane or at the guard it is TPG_ABORTED.  An objective that
   dead-ends, or an assignment that changes nothing, sticks its lane
   until the next implication.  Adds to r_decisions and r_backtracks,
   sets r_splits; -1 when scratch or the trail cannot grow. */
static int _tpg_search(repro_tpg *st, long limit, const int32_t *rank) {
  const u64 mask = st->mask;
  long width = 0, n_splits = 0, backtracks = 0, guard, pi, key;
  u64 stuck = 0, add[4];
  int rc;
  st->r_splits = st->r_lane = 0;
  st->n_bk = 0;
  while (width < 64 && (mask >> width & 1)) width++;
  while (((long)1 << n_splits) < width) n_splits++;
  if (repro_tpg_imply(st, 1) < 0) return -1;
  if (st->conflict_mask == mask) return TPG_REDUNDANT;
  for (guard = st->p->n_signals * width * 4 + 256; guard > 0; guard--) {
    u64 live = mask & ~st->conflict_mask, active;
    if (live) {
      u64 justified = repro_tpg_all_justified(st);
      if (justified) {
        for (st->r_lane = 0; !(justified >> st->r_lane & 1); st->r_lane++) ;
        return TPG_TESTED;
      }
    } else {                             /* every lane conflicts */
      int progressed = 0;
      while (st->n_bk && !progressed) {
        const u64 *e = st->bk + 3 * --st->n_bk;
        long trail_len = (long)e[0], entry = (long)e[2];
        u64 conflict = e[1];
        st->r_backtracks++;
        if (++backtracks > limit) return TPG_ABORTED;
        repro_tpg_rollback(st, trail_len, conflict);
        if ((entry & 3) == 1) {          /* tried once: flip the value */
          key = (entry >> 2) ^ 2;
          pi = key >> 2;
          if (_tpg_bk_push(st, st->trail_len, st->conflict_mask, key << 2 | 2))
            return -1;
          _tpg_pi_planes(st, pi, key & 1, key & 2 ? 0 : mask,
                         key & 2 ? mask : 0, add);
          if (_tpg_assign(st, pi, add) < 0 || repro_tpg_imply(st, 1) < 0)
            return -1;
          progressed = 1;
        }
      }
      if (!progressed) return TPG_REDUNDANT;
      stuck = 0;
      continue;
    }
    active = live & ~stuck;
    if (!active) return TPG_ABORTED;
    rc = repro_tpg_decide(st, active, 0, rank);
    if (rc < 0) return -1;
    if (rc == 0) return TPG_ABORTED;
    if (rc < 3) {
      stuck |= (u64)1 << st->d_rep;
      continue;
    }
    st->r_decisions++;
    pi = st->d_pi;
    if (st->r_splits < n_splits) {     /* 0 and 1 in halves of the lanes */
      u64 ones = _tpg_split_ones(st->r_splits++) & mask;
      _tpg_pi_planes(st, pi, st->d_stable, ~ones & mask, ones, add);
      rc = _tpg_assign(st, pi, add);
      if (rc < 0) return -1;
      if (!rc) {
        stuck |= (u64)1 << st->d_rep;
        continue;
      }
    } else {                           /* uniform, under a mark */
      long trail_len = st->trail_len;
      u64 conflict = st->conflict_mask;
      _tpg_pi_planes(st, pi, st->d_stable, st->d_value ? 0 : mask,
                     st->d_value ? mask : 0, add);
      rc = _tpg_assign(st, pi, add);
      if (rc < 0) return -1;
      if (!rc) {
        repro_tpg_rollback(st, trail_len, conflict);
        stuck |= (u64)1 << st->d_rep;
        continue;
      }
      key = BT_KEY(pi, st->d_value, st->d_stable);
      if (_tpg_bk_push(st, trail_len, conflict, key << 2 | 1)) return -1;
    }
    if (repro_tpg_imply(st, 1) < 0) return -1;
    stuck = 0;
  }
  return TPG_ABORTED;
}

/* _tpg_search as one call, with r_decisions and r_backtracks from 0. */
int repro_tpg_search(repro_tpg *st, long limit, const int32_t *rank) {
  st->r_decisions = st->r_backtracks = 0;
  return _tpg_search(st, limit, rank);
}

/* The off-path inputs of the path's XOR/XNOR gates, unique, in path
   order (repro.core.sensitize.xor_side_signals), into out until there
   are cap of them; returns how many. */
static long _tpg_xor_sides(const repro_plan *p, const int32_t *path,
                           long plen, int32_t *out, long cap) {
  long q, k, j, n = 0;
  for (q = 1; q < plen; q++) {
    long s = path[q];
    const int32_t *fi = p->fanin_idx + p->fanin_off[s];
    long nf = p->fanin_off[s + 1] - p->fanin_off[s];
    if (p->code[s] < 7) continue;
    for (k = 0; k < nf; k++) {
      if (fi[k] == path[q - 1]) continue;
      for (j = 0; j < n && out[j] != fi[k]; j++) ;
      if (j < n) continue;
      out[n++] = fi[k];
      if (n == cap) return n;
    }
  }
  return n;
}

/* One fault's nonrobust APTPG, as repro.core.aptpg.run_aptpg runs it
   from Python (its oracle), on this one engine, reset for every state.
   The XOR sides are screened when there are 1 to max_bits of them:
   combination c of 2^k goes to lane c % 64 of chunk c / 64, chunks
   min(2^k, 64) lanes wide, where the low sides split the lanes and the
   high ones hold the chunk's bits of c; one sensitization and one
   imply per chunk, and the combinations whose lane does not conflict
   survive, in order, into surv.  Otherwise surv is the all-zero
   combination.  Each survivor is sensitized in every one of width
   lanes and searched, up to the first TPG_TESTED; else the fault is
   TPG_ABORTED when a search aborted or the screen was skipped for too
   many sides, TPG_REDUNDANT otherwise.  The engine is left as the last
   state left it, r_width lanes wide.  r_decisions and r_backtracks sum
   the searches, r_passes every state's implication passes, r_seconds
   the sensitizations; r_splits is the last search's.  -1 when scratch
   or the trail cannot grow, -2 on a 7-valued engine, -3 for max_bits
   outside [0, TPG_MAX_XOR_BITS]. */
int repro_tpg_aptpg(repro_tpg *st, const int32_t *path, long plen,
                    int final_one, long width, long max_bits, long limit,
                    const int32_t *rank) {
  int32_t sides[TPG_MAX_XOR_BITS + 1];
  u64 polarity[TPG_MAX_XOR_BITS + 1];
  long n_sides, n_screened, k, j;
  int status, aborted = 0;
  double t0;
  if (st->n_planes != 2) return -2;
  if (max_bits < 0 || max_bits > TPG_MAX_XOR_BITS) return -3;
  st->r_decisions = st->r_backtracks = st->r_splits = st->r_passes = 0;
  st->r_lane = 0;
  st->r_seconds = 0;
  st->n_surv = 0;
  n_sides = _tpg_xor_sides(st->p, path, plen, sides, max_bits + 1);
  n_screened = n_sides <= max_bits ? n_sides : 0;
  if (n_screened) {
    long n_combos = (long)1 << n_screened, chunk = n_combos < 64 ? n_combos : 64;
    long n_split = 0, first, c;
    while (((long)1 << n_split) < chunk) n_split++;
    for (first = 0; first < n_combos; first += chunk) {
      u64 live;
      _tpg_reset(st, chunk);
      for (k = 0; k < n_screened; k++)
        polarity[k] = k < n_split ? _tpg_split_ones(k) & st->mask
                      : (first >> k & 1) ? st->mask : 0;
      t0 = _tpg_now();
      if (repro_tpg_sensitize(st, path, plen, final_one, st->mask, sides,
                              polarity, n_screened))
        return -1;
      st->r_seconds += _tpg_now() - t0;
      if (repro_tpg_imply(st, 1) < 0) return -1;
      st->r_passes += st->implication_passes;
      live = st->mask & ~st->conflict_mask;
      for (c = 0; c < chunk; c++) {
        if (!(live >> c & 1)) continue;
        if (_bt_grow(&st->surv, &st->cap_surv, st->n_surv + 1)) return -1;
        st->surv[st->n_surv++] = first + c;
      }
    }
    st->r_width = chunk;
  } else {
    if (_bt_grow(&st->surv, &st->cap_surv, 1)) return -1;
    st->surv[st->n_surv++] = 0;
  }
  for (j = 0; j < st->n_surv; j++) {
    long combo = st->surv[j];
    _tpg_reset(st, width);
    for (k = 0; k < n_screened; k++)
      polarity[k] = combo >> k & 1 ? st->mask : 0;
    t0 = _tpg_now();
    if (repro_tpg_sensitize(st, path, plen, final_one, st->mask, sides,
                            polarity, n_screened))
      return -1;
    st->r_seconds += _tpg_now() - t0;
    status = _tpg_search(st, limit, rank);
    if (status < 0) return -1;
    st->r_passes += st->implication_passes;
    st->r_width = width;
    if (status == TPG_TESTED) return status;
    if (status == TPG_ABORTED) aborted = 1;
  }
  return aborted || n_sides > max_bits ? TPG_ABORTED : TPG_REDUNDANT;
}

/* One FPTPG batch, step for step the loop of repro.core.fptpg.run_fptpg
   (its oracle): fault k, the path flat[off[k]:off[k + 1]] launching a
   rising transition where final_one[k], holds lane k.  With sensitize
   each path's nonrobust sensitization is assigned first, in batch order
   (timed into r_seconds; robust batches arrive sensitized).  Then
   imply without stopping and, while a lane of the batch is live and
   not stuck, one grouped decision step, its objective assigned to its
   group and implied; an objective that dead-ends sticks its group, an
   assignment that changes nothing its rep lane.  Sets r_decided (the
   lanes that took an optional assignment), r_decisions, r_justified
   (the batch's conflict-free, justified lanes) and r_xor_lanes (the
   lanes whose path has an XOR side).  0, -1 when scratch or the trail
   cannot grow, -2 to sensitize a 7-valued engine.  _tpg_fptpg reads
   fault k from row rows[k] of the CSR instead, the detection walk's
   row gather (rows NULL: fault k is row k). */
static int _tpg_fptpg(repro_tpg *st, const int32_t *flat, const int32_t *off,
                      const uint8_t *final_one, const int32_t *rows,
                      long n_faults, int sensitize, const int32_t *rank) {
  u64 used = (n_faults >= 64 ? ~(u64)0 : ((u64)1 << n_faults) - 1) & st->mask;
  u64 stuck = 0, add[4];
  long k, r, guard;
  int32_t side;
  int rc;
  st->r_decided = st->r_xor_lanes = 0;
  st->r_decisions = 0;
  st->r_seconds = 0;
  if (sensitize) {
    double t0 = _tpg_now();
    for (k = 0; k < n_faults; k++) {
      r = rows ? rows[k] : k;
      rc = repro_tpg_sensitize(st, flat + off[r], off[r + 1] - off[r],
                               final_one[r], (u64)1 << k, 0, 0, 0);
      if (rc) return rc;
    }
    st->r_seconds = _tpg_now() - t0;
  }
  for (k = 0; k < n_faults; k++) {
    r = rows ? rows[k] : k;
    if (_tpg_xor_sides(st->p, flat + off[r], off[r + 1] - off[r], &side, 1))
      st->r_xor_lanes |= (u64)1 << k;
  }
  if (repro_tpg_imply(st, 0) < 0) return -1;
  for (guard = st->p->n_signals * (n_faults > 1 ? n_faults : 1) + 64;
       guard > 0; guard--) {
    u64 live = used & ~st->conflict_mask & ~stuck, lanes;
    if (!live) break;
    rc = repro_tpg_decide(st, live, 1, rank);
    if (rc < 0) return -1;
    if (rc == 0) break;
    lanes = st->d_lanes;
    if (rc < 3) {
      stuck |= lanes;
      continue;
    }
    _tpg_pi_planes(st, st->d_pi, st->d_stable, st->d_value ? 0 : lanes,
                   st->d_value ? lanes : 0, add);
    st->r_decided |= lanes;
    st->r_decisions++;
    rc = _tpg_assign(st, st->d_pi, add);
    if (rc < 0) return -1;
    if (!rc) {
      stuck |= (u64)1 << st->d_rep;
      continue;
    }
    if (repro_tpg_imply(st, 0) < 0) return -1;
  }
  st->r_justified = repro_tpg_all_justified(st) & used;
  return 0;
}

int repro_tpg_fptpg(repro_tpg *st, const int32_t *flat, const int32_t *off,
                    const uint8_t *final_one, long n_faults, int sensitize,
                    const int32_t *rank) {
  return _tpg_fptpg(st, flat, off, final_one, 0, n_faults, sensitize, rank);
}



/* The campaign rounds: repro_tpg_round runs a round's generation shards
   on the executor's engine and repro_drop_round the drop bus's pass
   over its live faults, each as one call. */

/* An FPTPG lane left for APTPG: conflicted after an optional
   assignment or with an XOR side, or left unjustified. */
#define TPG_DEFERRED 4

/* buf, or a larger copy with room for need items of size bytes
   (doubling, from 64); NULL when it cannot grow, buf left to its
   owner then. */
static void *_grown(void *buf, long *cap, long need, size_t size) {
  long c;
  void *grown;
  if (need <= *cap && buf) return buf;
  for (c = *cap ? 2 * *cap : 64; c < need; c *= 2) ;
  grown = realloc(buf, (size_t)c * size);
  if (grown) *cap = c;
  return grown;
}

/* The tested lane's V1/V2 row, as TpgEngine.input_rows reads a
   3-valued lane: V2 the final values of the primary inputs, V1 the
   same with the path input flipped.  -4 when the path does not start
   at a primary input. */
static int _tpg_row(const repro_tpg *st, const int32_t *path, long lane,
                    uint8_t *row) {
  const repro_plan *p = st->p;
  long k, ni = p->n_inputs, column = p->input_pos[path[0]];
  if (column < 0) return -4;
  for (k = 0; k < ni; k++)
    row[k] = row[ni + k] =
        (uint8_t)(st->planes[(long)p->input_sig[k] * 2 + 1] >> lane & 1);
  row[column] ^= 1;
  return 0;
}

/* Room in the round outputs for faults up to position stop and tested
   rows up to n_tested: 0, -1 when they cannot grow. */
static int _round_room(repro_tpg *st, long stop, long n_tested) {
  void *grown = _grown(st->g_status, &st->cap_status, stop, 1);
  if (!grown) return -1;
  st->g_status = grown;
  grown = _grown(st->g_rows, &st->cap_rows, n_tested * 2 * st->p->n_inputs,
                 1);
  if (!grown) return -1;
  st->g_rows = grown;
  grown = _grown(st->g_pos, &st->cap_pos, n_tested, sizeof(int32_t));
  if (!grown) return -1;
  st->g_pos = grown;
  return 0;
}

/* One generation round of a nonrobust campaign
   (repro.campaign.scheduler.SerialExecutor.run_round): shards first to
   stop - 1, shard k the faults at positions bounds[k] to
   bounds[k + 1] - 1, fault f the row rows[f] of the signal CSR
   flat/off with launch final_one; a shard with skip[k] set
   (quarantined) is passed over.  With aptpg 0 a shard is one FPTPG
   batch (_tpg_fptpg, sensitized here, its fault j in lane j) on the
   engine reset to width lanes; else its one fault's repro_tpg_aptpg at
   width lanes, max_bits and limit.  Fault f's verdict goes to
   g_status[f]: TPG_TESTED, TPG_REDUNDANT, TPG_ABORTED, or for an FPTPG
   lane TPG_DEFERRED (the verdicts of repro.core.fptpg, a conflicted
   lane redundant unless it took an optional assignment or has an XOR
   side); 0 in a skipped shard.  Each tested lane's row (_tpg_row) is
   appended to g_rows and its position to g_pos.  g_decisions,
   g_backtracks, g_passes (implication passes) and g_seconds
   (sensitizing) sum the shards' counters, and g_tested counts the
   rows; all are cleared when first is 0.  A shard's rows and counters
   land once it completes.  Returns g_tested, or on failure the code of
   _tpg_fptpg, repro_tpg_aptpg or _tpg_row with the failing shard in
   g_shard (and for _tpg_row's, the tested lane in r_lane).  Before any
   shard runs: -2 on a 7-valued engine, -3 for max_bits outside
   [0, TPG_MAX_XOR_BITS], -5 unless first <= stop and every shard from
   first holds 1 to width faults (1 in an APTPG round); the caller
   checks bounds[0] and bounds[stop] against its rows. */
long repro_tpg_round(repro_tpg *st, int aptpg, long width, long max_bits,
                     long limit, const int32_t *rank, const int32_t *flat,
                     const int32_t *off, const uint8_t *final_one,
                     const int32_t *rows, const int32_t *bounds, long first,
                     long stop, const uint8_t *skip) {
  long k, j, ni2 = 2 * st->p->n_inputs;
  if (st->n_planes != 2) return -2;
  if (max_bits < 0 || max_bits > TPG_MAX_XOR_BITS) return -3;
  if (first < 0 || first > stop) return -5;
  for (k = first; k < stop; k++) {
    long nf = bounds[k + 1] - bounds[k];
    if (nf < 1 || nf > (aptpg ? 1 : width)) return -5;
  }
  if (first == 0) {
    st->g_tested = st->g_decisions = st->g_backtracks = st->g_passes = 0;
    st->g_seconds = 0;
  }
  st->g_shard = first;
  if (_round_room(st, bounds[stop], st->g_tested)) return -1;
  for (k = first; k < stop; k++) {
    long lo = bounds[k], nf = bounds[k + 1] - lo, tested = st->g_tested;
    long decisions, backtracks = 0, passes;
    int rc = 0;
    st->g_shard = k;
    if (skip[k]) {
      memset(st->g_status + lo, 0, (size_t)nf);
      continue;
    }
    if (_round_room(st, bounds[stop], tested + nf)) return -1;
    if (aptpg) {
      long r = rows[lo];
      const int32_t *path = flat + off[r];
      int status = repro_tpg_aptpg(st, path, off[r + 1] - off[r],
                                   final_one[r], width, max_bits, limit,
                                   rank);
      if (status < 0) return status;
      st->g_status[lo] = (uint8_t)status;
      if (status == TPG_TESTED) {
        rc = _tpg_row(st, path, st->r_lane, st->g_rows + tested * ni2);
        st->g_pos[tested++] = (int32_t)lo;
      }
      decisions = st->r_decisions;
      backtracks = st->r_backtracks;
      passes = st->r_passes;
    } else {
      u64 conflicted, excused;
      _tpg_reset(st, width);
      rc = _tpg_fptpg(st, flat, off, final_one, rows + lo, nf, 1, rank);
      if (rc) return rc;
      conflicted = st->conflict_mask;
      excused = st->r_decided | st->r_xor_lanes;
      for (j = 0; j < nf; j++) {
        u64 bit = (u64)1 << j;
        int status = TPG_DEFERRED;
        if (conflicted & bit) {
          if (!(excused & bit)) status = TPG_REDUNDANT;
        } else if (st->r_justified & bit) {
          status = TPG_TESTED;
          rc = _tpg_row(st, flat + off[rows[lo + j]], j,
                        st->g_rows + tested * ni2);
          if (rc) {
            st->r_lane = j;
            break;
          }
          st->g_pos[tested++] = (int32_t)(lo + j);
        }
        st->g_status[lo + j] = (uint8_t)status;
      }
      decisions = st->r_decisions;
      passes = st->implication_passes;
    }
    if (rc) return rc;
    st->g_tested = tested;
    st->g_decisions += decisions;
    st->g_backtracks += backtracks;
    st->g_passes += passes;
    st->g_seconds += st->r_seconds;
  }
  return st->g_tested;
}


/* A campaign drop bus's native round (repro.kernel.native.DropRound):
   the slabs, side-term memo, valid lanes and mask row of
   repro_drop_round, and the rows it detected, grown on demand and kept
   between rounds. */
typedef struct {
  const repro_plan *p;
  long cap_words;
  u64 *words;
  int32_t *slot;
  int32_t *out;
  long cap_out;
} repro_drop;

void repro_drop_free(repro_drop *d) {
  if (!d) return;
  free(d->words); free(d->slot); free(d->out);
  free(d);
}

repro_drop *repro_drop_new(const repro_plan *p) {
  repro_drop *d = calloc(1, sizeof *d);
  if (!d) return 0;
  d->p = p;
  d->slot = malloc((size_t)(p->fanin_off[p->n_signals] + 1) * sizeof(int32_t));
  if (!d->slot) {
    repro_drop_free(d);
    return 0;
  }
  return d;
}

/* One drop round of a campaign (repro.campaign.bus.DropBus.absorb):
   the n_fresh rows at fresh -- V1 then V2, one byte per primary input
   each -- packed into the 7-valued input planes (S0/S1 where the
   vectors agree, F/R where they differ, the padding lanes X: what
   PackedPatterns.planes7_arrays computes), one repro_planes7_pass, then
   the detection walk of repro_detect_walk over every table row r of
   the signal CSR flat/off with live[r] set, in row order.  A detected
   row's live byte is cleared and the row appended to out.  Returns how
   many rows were detected, ascending in out; -1 when the buffers
   cannot grow. */
long repro_drop_round(repro_drop *d, const uint8_t *fresh, long n_fresh,
                      const int32_t *flat, const int32_t *off,
                      const uint8_t *final_one, uint8_t *live, long n_rows,
                      int robust) {
  const repro_plan *p = d->p;
  long N = p->n_signals, E = p->fanin_off[N], ni = p->n_inputs;
  long n = (n_fresh + 63) / 64, k, w, r, used = 0, n_det = 0;
  u64 *Z, *O, *S, *I, *terms, *valid, *det;
  void *grown;
  if (n_fresh <= 0) return 0;
  if (n > d->cap_words) {
    /* nothing is kept between rounds: a fresh block, not a copy */
    long c;
    for (c = d->cap_words ? 2 * d->cap_words : 1; c < n; c *= 2) ;
    free(d->words);
    d->cap_words = 0;
    d->words = malloc((size_t)((4 * N + E + 3) * c) * sizeof(u64));
    if (!d->words) return -1;
    d->cap_words = c;
  }
  grown = _grown(d->out, &d->cap_out, n_rows, sizeof(int32_t));
  if (!grown) return -1;
  d->out = grown;
  Z = d->words;
  O = Z + N * n;
  S = O + N * n;
  I = S + N * n;
  terms = I + N * n;
  valid = terms + (E + 1) * n;
  det = valid + n;
  for (w = 0; w < n; w++) valid[w] = ~(u64)0;
  if (n_fresh % 64) valid[n - 1] = ((u64)1 << (n_fresh % 64)) - 1;
  for (k = 0; k < ni; k++) {
    long s = p->input_sig[k];
    for (w = 0; w < n; w++) O[s * n + w] = I[s * n + w] = 0;
  }
  for (r = 0; r < n_fresh; r++) {
    const uint8_t *v1 = fresh + r * 2 * ni, *v2 = v1 + ni;
    u64 bit = (u64)1 << (r % 64);
    w = r / 64;
    for (k = 0; k < ni; k++) {
      long s = p->input_sig[k];
      if (v2[k]) O[s * n + w] |= bit;
      if (v1[k] != v2[k]) I[s * n + w] |= bit;
    }
  }
  for (k = 0; k < ni; k++) {
    long s = p->input_sig[k];
    for (w = 0; w < n; w++) {
      Z[s * n + w] = valid[w] & ~O[s * n + w];
      S[s * n + w] = valid[w] & ~I[s * n + w];
    }
  }
  repro_planes7_pass(p, Z, O, S, I, n);
  for (k = 0; k <= E; k++) d->slot[k] = -1;
  for (r = 0; r < n_rows; r++) {
    if (!live[r]) continue;
    if (_detect_fault(p, Z, O, S, I, n, flat + off[r], off[r + 1] - off[r],
                      final_one[r], robust, valid, d->slot, terms, &used,
                      det)) {
      live[r] = 0;
      d->out[n_det++] = (int32_t)r;
    }
  }
  return n_det;
}

/* The row codec's readers: Python objects read pointer by pointer.
   repro.kernel.packed reads pattern tuples (and single vectors) into
   lane planes, and repro.paths.table builds a FaultTable's signal
   column from path tuples; both try these first.  cffi cannot pass a
   PyObject *, so repro.kernel.native binds the two with ctypes.PyDLL,
   whose calls keep the GIL: nothing else runs while they read, and they
   call nothing that could release it or run Python code.  Each accepts
   only exact types -- an exact list of exact tuples -- and either
   fills the caller's whole buffer and returns 0, or returns -1, with
   no exception set, at the first value outside its contract.  The
   caller then runs its Python path over the whole batch, which raises
   the errors, so a refusal never changes a result or an error text. */

/* repro_tuple_planes reads four tuples side by side and asks for the
   tuples TUPLE_AHEAD places on while it does: the read is bound by the
   latency of each tuple's cache lines, not by bandwidth, so it keeps
   several tuples in flight. */
#define TUPLE_AHEAD 8

/* The n vectors of rows, an exact list of n exact tuples of width items
   each, as lane planes at out: width rows of n_words = ceil(n / 64)
   words, item j of vector k in bit k % 64 of word k / 64 of row j, the
   padding lanes of the last word 0.  An item must *be* zero or one,
   the interpreter's cached ints 0 and 1: an identity test, no
   conversion, so True, 1.0 or a numpy integer is refused like 2 or
   "1".  Each word is built for every row at once in a scratch row of
   width words, then written out: writing the planes directly would
   put one tuple's width writes n_words words apart, on a few cache
   sets.  A step past the last vector repeats the step's first one and
   masks its bits off.  The scratch is freed on every return. */
int repro_tuple_planes(PyObject *rows, long n, long width, PyObject *zero,
                       PyObject *one, u64 *out) {
  long n_words = (n + 63) / 64, w, k, j, q;
  /* a tuple's three header words and its items */
  long bytes = (long)sizeof(PyObject *) * (width + 3);
  u64 *word;
  if (!PyList_CheckExact(rows) || PyList_GET_SIZE(rows) != n) return -1;
  word = malloc((size_t)(width > 0 ? width : 1) * sizeof(u64));
  if (!word) return -1;
  for (w = 0; w < n_words; w++) {
    long first = w * 64, stop = n - first < 64 ? n - first : 64;
    memset(word, 0, (size_t)width * sizeof(u64));
    for (k = 0; k < stop; k += 4) {
      PyObject **items[4];
      u64 keep = stop - k < 4 ? ((u64)1 << (stop - k)) - 1 : 15;
      u64 bad = 0;
      for (q = 0; q < 4; q++) {
        PyObject *row = PyList_GET_ITEM(rows, first + k + (k + q < stop ? q : 0));
#ifdef __GNUC__
        if (first + k + q + TUPLE_AHEAD < n) {
          const char *ahead =
              (const char *)PyList_GET_ITEM(rows, first + k + q + TUPLE_AHEAD);
          long at;
          for (at = 0; at < bytes + 64; at += 64) __builtin_prefetch(ahead + at);
        }
#endif
        if (!PyTuple_CheckExact(row) || PyTuple_GET_SIZE(row) != width)
          goto refuse;
        items[q] = &PyTuple_GET_ITEM(row, 0);
      }
      for (j = 0; j < width; j++) {
        PyObject *a = items[0][j], *b = items[1][j];
        PyObject *c = items[2][j], *d = items[3][j];
        u64 ones = (u64)(a == one) | (u64)(b == one) << 1 |
                   (u64)(c == one) << 2 | (u64)(d == one) << 3;
        word[j] |= (ones & keep) << k;
        bad |= (u64)((a != zero) & (a != one)) | (u64)((b != zero) & (b != one)) |
               (u64)((c != zero) & (c != one)) | (u64)((d != zero) & (d != one));
      }
      if (bad) goto refuse;
    }
    for (j = 0; j < width; j++) out[j * n_words + w] = word[j];
  }
  free(word);
  return 0;
refuse:
  free(word);
  return -1;
}

/* The signal ids of paths, an exact list of exact tuples of exact ints
   in [0, n_signals), back to back at flat, which holds size ids: 0 when
   they fill it exactly, -1 otherwise (a bool, a numpy integer or an id
   past a C long included). */
int repro_path_flat(PyObject *paths, int32_t *flat, long size,
                    long n_signals) {
  long k, j, n, used = 0;
  if (!PyList_CheckExact(paths)) return -1;
  n = PyList_GET_SIZE(paths);
  for (k = 0; k < n; k++) {
    PyObject *path = PyList_GET_ITEM(paths, k), **items;
    long len;
    if (!PyTuple_CheckExact(path)) return -1;
    len = PyTuple_GET_SIZE(path);
    if (len > size - used) return -1;
    items = &PyTuple_GET_ITEM(path, 0);
    for (j = 0; j < len; j++) {
      int overflow;
      long id;
      if (!PyLong_CheckExact(items[j])) return -1;
      id = PyLong_AsLongAndOverflow(items[j], &overflow);
      if (overflow || id < 0 || id >= n_signals) return -1;
      flat[used++] = (int32_t)id;
    }
  }
  return used == size ? 0 : -1;
}
