/* C core of the flat-array engines (loaded by _fastcore.py).
 *
 * Figure 1 of the paper is written once, as the three step functions
 * k_select / k_payload / k_receive -- the C mirror of
 * FlatArrayEngine.select / payload / receive -- over a per-engine k_ctx.
 * Everything exported below them is a scheduler: it decides when a step
 * runs, which draw stream feeds it, and keeps the dead/failed accounts.
 */

#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

#define MT_N 624
#define MT_M 397
#define MATRIX_A   0x9908b0dfU
#define UPPER_MASK 0x80000000U
#define LOWER_MASK 0x7fffffffU

/* ------------------------------------------------------------------ */
/* Engine context: everything mutable lives here, one per engine, so   */
/* engines in different threads never share state (ctypes releases the */
/* GIL for the duration of every call).                                */
/* ------------------------------------------------------------------ */

typedef struct k_ctx {
    uint32_t mt[MT_N];                      /* resident MT19937 state  */
    int mti;
    int64_t *vids, *vhops, *vlen, *rowof;   /* the engine's flat rows  */
    unsigned char *alive;
    int64_t c, H, S;
    int keepself, push, pull, ps, vs, omniscient, shuffle;
    const int64_t *group;                   /* partition: group per id, */
    int64_t ngroup;                         /* or NULL when none is open */
    int64_t *scratch, scratch_c;            /* one block, sized for c  */
    int64_t *rqi, *rqh, *rpi, *rph;         /* payload scratch         */
    int64_t *bids, *bhops, *order;          /* merge buffer            */
    int64_t *picked, *pool, *cand;
    unsigned char *bown;                    /* own-origin flags        */
    int64_t *mids, *mhops, *mlen;           /* message slot pool       */
    int64_t *msrc, *mdst;                   /* per-slot source/destination */
} k_ctx;

k_ctx *fc_new(void) {
    k_ctx *k = calloc(1, sizeof(k_ctx));
    if (k) k->scratch_c = -1;
    return k;
}

void fc_free(k_ctx *k) {
    if (k) free(k->scratch);
    free(k);
}

/* Register the engine's buffers, protocol and open partition (`group`:
   see k_cut); re-issued whenever a buffer may have moved.  Returns 0,
   or -1 when the scratch block cannot be allocated. */
int fc_setup(k_ctx *k, int64_t *vids, int64_t *vhops, int64_t *vlen,
             int64_t *rowof, unsigned char *alive, int64_t c,
             int64_t healer, int64_t swapper, int keepself, int push,
             int pull, int ps, int vs, int omniscient, int do_shuffle,
             const int64_t *group, int64_t ngroup) {
    k->vids = vids; k->vhops = vhops; k->vlen = vlen; k->rowof = rowof;
    k->alive = alive;
    k->group = group; k->ngroup = ngroup;
    k->c = c; k->H = healer; k->S = swapper;
    k->keepself = keepself; k->push = push; k->pull = pull;
    k->ps = ps; k->vs = vs; k->omniscient = omniscient;
    k->shuffle = do_shuffle;
    if (c != k->scratch_c) {
        size_t pay = (size_t)(c + 1), buf = (size_t)(2 * c + 2);
        size_t words = 4 * pay + 4 * buf + 2 * (size_t)c;
        int64_t *s = malloc(words * sizeof(int64_t) + buf);
        if (!s) return -1;
        free(k->scratch);
        k->scratch = s; k->scratch_c = c;
        k->rqi = s; s += pay; k->rqh = s; s += pay;
        k->rpi = s; s += pay; k->rph = s; s += pay;
        k->bids = s; s += buf; k->bhops = s; s += buf;
        k->order = s; s += buf; k->pool = s; s += buf;
        k->picked = s; s += c; k->cand = s; s += c;
        k->bown = (unsigned char *)s;
    }
    return 0;
}

/* ------------------------------------------------------------------ */
/* MT19937, bit-exact with CPython Modules/_randommodule.c            */
/* ------------------------------------------------------------------ */

static uint32_t genrand_uint32(k_ctx *k) {
    uint32_t y, *mt = k->mt;
    static const uint32_t mag01[2] = {0U, MATRIX_A};
    if (k->mti >= MT_N) {
        int kk;
        for (kk = 0; kk < MT_N - MT_M; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + MT_M] ^ (y >> 1) ^ mag01[y & 1U];
        }
        for (; kk < MT_N - 1; kk++) {
            y = (mt[kk] & UPPER_MASK) | (mt[kk + 1] & LOWER_MASK);
            mt[kk] = mt[kk + (MT_M - MT_N)] ^ (y >> 1) ^ mag01[y & 1U];
        }
        y = (mt[MT_N - 1] & UPPER_MASK) | (mt[0] & LOWER_MASK);
        mt[MT_N - 1] = mt[MT_M - 1] ^ (y >> 1) ^ mag01[y & 1U];
        k->mti = 0;
    }
    y = mt[k->mti++];
    y ^= (y >> 11);
    y ^= (y << 7) & 0x9d2c5680U;
    y ^= (y << 15) & 0xefc60000U;
    y ^= (y >> 18);
    return y;
}

/* rstate: the 625-word state from Random.getstate(), as int64. */
void fc_load_state(k_ctx *k, const int64_t *rstate) {
    int j;
    for (j = 0; j < MT_N; j++) k->mt[j] = (uint32_t)rstate[j];
    k->mti = (int)rstate[MT_N];
}

void fc_store_state(k_ctx *k, int64_t *rstate) {
    int j;
    for (j = 0; j < MT_N; j++) rstate[j] = (int64_t)k->mt[j];
    rstate[MT_N] = k->mti;
}

/* Random.random(): genrand_res53, bit-exact with _randommodule.c. */
static double fc_random(k_ctx *k) {
    uint32_t a = genrand_uint32(k) >> 5, b = genrand_uint32(k) >> 6;
    return (a * 67108864.0 + b) * (1.0 / 9007199254740992.0);
}

/* Random.getrandbits(bits) for 1 <= bits <= 32 (one MT word). */
static uint32_t fc_getrandbits(k_ctx *k, int bits) {
    return genrand_uint32(k) >> (32 - bits);
}

/* ------------------------------------------------------------------ */
/* Draw streams: what a scheduler injects into the steps.  Either the  */
/* resident MT19937, or -- for the sharded rounds -- a stateless       */
/* splitmix64 counter stream: every keyed draw is a pure function of   */
/* (phase_seed, purpose, round, node, source, counter), so any shard,  */
/* in any process, in any order, reproduces the same exchanges.  The   */
/* Python fallback in repro.simulation.sharded implements the          */
/* identical derivation chain; the differential suite pins the two.    */
/* ------------------------------------------------------------------ */

typedef struct k_draw k_draw;
struct k_draw {
    int64_t (*below)(k_draw *d, int64_t n);   /* next draw, in [0, n) */
    k_ctx *k;
    uint64_t key, t;                          /* keyed stream, counter */
};

/* Random._randbelow_with_getrandbits; n >= 1 and n < 2**32 here, so
   getrandbits(bits) takes a single MT word. */
static int64_t mt_below(k_draw *d, int64_t n) {
    int bits = 0;
    int64_t v = n;
    uint32_t r;
    while (v) { bits++; v >>= 1; }
    do {
        r = fc_getrandbits(d->k, bits);
    } while ((int64_t)r >= n);
    return (int64_t)r;
}

#define FS_SELECT 1
#define FS_REQ 2
#define FS_REP 3

static uint64_t fs_sm64(uint64_t z) {
    z += 0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

static int64_t fs_below(k_draw *d, int64_t n) {
    return (int64_t)(fs_sm64(d->key + 1 + d->t++) % (uint64_t)n);
}

static k_draw mt_draw(k_ctx *k) {
    k_draw d = {mt_below, k, 0, 0};
    return d;
}

static k_draw fs_draw(uint64_t seed, uint64_t purpose, uint64_t rnd,
                      uint64_t a, uint64_t b) {
    k_draw d = {fs_below, NULL, 0, 0};
    d.key = fs_sm64(fs_sm64(fs_sm64(fs_sm64(seed + purpose) + rnd) + a) + b);
    return d;
}

/* Random.shuffle */
static void shuffle_ids(k_draw *draw, int64_t *x, int64_t len) {
    int64_t i, j, t;
    for (i = len - 1; i > 0; i--) {
        j = draw->below(draw, i + 1);
        t = x[i]; x[i] = x[j]; x[j] = t;
    }
}

/* Random.sample(range(n), count), pool algorithm (always taken: the
   caller guarantees n <= setsize).  result receives the chosen
   positions in sample order. */
static void sample_range(k_draw *draw, int64_t n, int64_t count,
                         int64_t *result, int64_t *pool) {
    int64_t i, j;
    for (i = 0; i < n; i++) pool[i] = i;
    for (i = 0; i < count; i++) {
        j = draw->below(draw, n - i);
        result[i] = pool[j];
        pool[j] = pool[n - i - 1];
    }
}

/* ------------------------------------------------------------------ */
/* The Figure-1 exchange steps                                         */
/* ------------------------------------------------------------------ */

/* view <- selectView(merge(received, view)); received hop counts arrive
   with the receiver-side increaseHopCount already applied. */
static void merge_into(k_ctx *k, int64_t t, const int64_t *rids,
                       const int64_t *rhops, int64_t nr, k_draw *sample) {
    int64_t c = k->c, row = k->rowof[t], base = row * c, ln = k->vlen[row];
    int64_t *vids = k->vids + base, *vhops = k->vhops + base;
    int64_t *bids = k->bids, *bhops = k->bhops, *order = k->order;
    unsigned char *bown = k->bown;
    int64_t excl = k->keepself ? -1 : t;
    int64_t n = 0, nru, m, j, i;

    /* duplicate elimination: lowest hop count wins, first-seen
       (received-first) order is kept, exactly like the reference merge. */
    for (i = 0; i < nr; i++) {
        int64_t a = rids[i], f = -1;
        if (a == excl) continue;
        for (j = 0; j < n; j++) if (bids[j] == a) { f = j; break; }
        if (f < 0) { bids[n] = a; bhops[n] = rhops[i]; bown[n] = 0; n++; }
        else if (rhops[i] < bhops[f]) { bhops[f] = rhops[i]; bown[f] = 0; }
    }
    nru = n;
    for (i = 0; i < ln; i++) {
        int64_t a = vids[i], h = vhops[i], f = -1;
        if (a == excl) continue;
        for (j = 0; j < nru; j++) if (bids[j] == a) { f = j; break; }
        if (f < 0) { bids[n] = a; bhops[n] = h; bown[n] = 1; n++; }
        else if (h < bhops[f]) { bhops[f] = h; bown[f] = 1; }
    }

    /* stable insertion sort by hop count (ties keep first-seen order). */
    for (j = 0; j < n; j++) order[j] = j;
    for (j = 1; j < n; j++) {
        int64_t q = order[j], h = bhops[q], w = j;
        while (w > 0 && bhops[order[w - 1]] > h) {
            order[w] = order[w - 1];
            w--;
        }
        order[w] = q;
    }
    m = n;

    /* healer/swapper pre-truncation. */
    if (m > c && (k->H || k->S)) {
        int64_t surplus = m - c;
        if (k->H) {
            int64_t drop = k->H < surplus ? k->H : surplus;
            m -= drop;                      /* oldest = tail of the sort */
            surplus -= drop;
        }
        if (surplus > 0 && k->S) {
            int64_t todrop = k->S < surplus ? k->S : surplus, w = 0;
            for (j = 0; j < m; j++) {
                int64_t q = order[j];
                if (todrop && bown[q]) { todrop--; continue; }
                order[w++] = q;
            }
            m = w;
        }
    }

    /* view-selection truncation. */
    if (m > c) {
        if (k->vs == 1) {                    /* head */
            m = c;
        } else if (k->vs == 2) {             /* tail */
            memmove(order, order + (m - c), (size_t)c * sizeof(int64_t));
            m = c;
        } else {                             /* rand */
            int64_t *chosen = k->pool;       /* reused after sampling */
            sample_range(sample, m, c, k->picked, k->pool);
            for (j = 0; j < c; j++) chosen[j] = order[k->picked[j]];
            /* stable re-sort by hop count keeps the sample order on ties,
               like select_rand's chosen.sort(key=hop_count). */
            for (j = 1; j < c; j++) {
                int64_t q = chosen[j], h = bhops[q], w = j;
                while (w > 0 && bhops[chosen[w - 1]] > h) {
                    chosen[w] = chosen[w - 1];
                    w--;
                }
                chosen[w] = q;
            }
            memcpy(order, chosen, (size_t)c * sizeof(int64_t));
            m = c;
        }
    }

    for (j = 0; j < m; j++) {
        vids[j] = bids[order[j]];
        vhops[j] = bhops[order[j]];
    }
    k->vlen[row] = m;
}

/* First half of the active thread (GossipNode.begin_exchange up to the
   send): age the view, select the exchange partner -- the one
   head/rand/tail dispatch, `rand` taking one draw from the injected
   stream.  Returns the peer, or -1 when the view holds no candidate.
   Under omniscient selection only live entries are candidates;
   otherwise the peer may be dead and the scheduler accounts for the
   lost message. */
static int64_t k_select(k_ctx *k, int64_t node, k_draw *draw) {
    int64_t row = k->rowof[node], base = row * k->c, ln = k->vlen[row], j;
    const int64_t *cand = k->vids + base;
    for (j = 0; j < ln; j++) k->vhops[base + j]++;
    if (k->omniscient) {
        int64_t nc = 0;
        for (j = 0; j < ln; j++)
            if (k->alive[cand[j]]) k->cand[nc++] = cand[j];
        cand = k->cand;
        ln = nc;
    }
    if (!ln) return -1;
    if (k->ps == 0) return cand[draw->below(draw, ln)];
    return k->ps == 1 ? cand[0] : cand[ln - 1];
}

/* The buffer `sender` ships -- merge(view, {(me, 0)}) with the
   receiver-side increaseHopCount already applied -- into a message
   slot, a shard record or scratch alike: a pull reply or a pushed
   request; empty for a pull-only request.  Returns the entry count. */
static int64_t k_payload(const k_ctx *k, int64_t sender, int reply,
                         int64_t *ids_out, int64_t *hops_out) {
    int64_t row = k->rowof[sender], base = row * k->c, ln = k->vlen[row], j;
    if (!reply && !k->push) return 0;
    ids_out[0] = sender; hops_out[0] = 1;
    for (j = 0; j < ln; j++) {
        ids_out[1 + j] = k->vids[base + j];
        hops_out[1 + j] = k->vhops[base + j] + 1;
    }
    return ln + 1;
}

/* `node` takes delivery of a buffer: the passive thread's merge and the
   second half of the active thread alike.  An empty buffer (the
   pull-only request) skips the merge, which is draw- and state-neutral
   (no truncation can trigger below capacity).  `sample` feeds the RAND
   truncation. */
static void k_receive(k_ctx *k, int64_t node, const int64_t *ids,
                      const int64_t *hops, int64_t n, k_draw *sample) {
    if (n) merge_into(k, node, ids, hops, n, sample);
}

/* Whether an open partition separates a from b: both carry a group id
   and the ids differ.  An id past the array, or marked -1, joined after
   the split and is unconstrained (SameGroup of simulation/churn.py, as
   data).  Asked where the Python schedulers ask `reachable`; draws
   nothing.  Inline: one pointer test per exchange when none is open. */
static inline int k_cut(const k_ctx *k, int64_t a, int64_t b) {
    int64_t ga, gb;
    if (!k->group || a >= k->ngroup || b >= k->ngroup) return 0;
    ga = k->group[a]; gb = k->group[b];
    return ga >= 0 && gb >= 0 && ga != gb;
}

/* ------------------------------------------------------------------ */
/* Scheduler 1: the synchronous cycle (engine "fast").                 */
/* ------------------------------------------------------------------ */

/* One full cycle.  order: live ids in insertion order (shuffled in place
   when enabled); rstate as in fc_load_state, mutated in place;
   out: {completed, failed}. */
void fc_run_cycle(k_ctx *k, int64_t *order, int64_t norder, int64_t *rstate,
                  int64_t *out) {
    k_draw mt = mt_draw(k);
    int64_t completed = 0, failed = 0, oi;
    fc_load_state(k, rstate);
    if (k->shuffle) shuffle_ids(&mt, order, norder);
    for (oi = 0; oi < norder; oi++) {
        int64_t i = order[oi], p, nrq, nrp;
        if (!k->alive[i]) continue;
        p = k_select(k, i, &mt);
        if (p < 0) continue;
        /* dead (non-omniscient selection) or across the partition */
        if (!k->alive[p] || k_cut(k, i, p)) { failed++; continue; }
        nrq = k_payload(k, i, 0, k->rqi, k->rqh);
        /* passive thread: the reply snapshot precedes the merge. */
        nrp = k->pull ? k_payload(k, p, 1, k->rpi, k->rph) : 0;
        k_receive(k, p, k->rqi, k->rqh, nrq, &mt);
        /* active thread, second half: merge the pulled view, if any. */
        k_receive(k, i, k->rpi, k->rph, nrp, &mt);
        completed++;
    }
    out[0] = completed;
    out[1] = failed;
    fc_store_state(k, rstate);
}

/* Random-bootstrap all views: node i (address == id == 0..n-1) receives
   the first `fill` values != i of Random.sample(range(n), count).
   Replicates CPython's sample() draw-for-draw -- both the pool algorithm
   (small n) and the selection-set algorithm with its rejection loop
   (large n), including the floating-point setsize cutoff -- so the RNG
   stream stays byte-identical with the reference engine's bootstrap.
   rstate as in fc_run_cycle. */
void fc_bootstrap(k_ctx *k, int64_t n, int64_t count, int64_t fill,
                  int64_t *rstate) {
    k_draw mt = mt_draw(k);
    int64_t i, j, t, w;
    int64_t setsize = 21;
    int64_t *chosen = malloc((size_t)count * sizeof(int64_t));
    int64_t *pool = NULL;
    unsigned char *sel = NULL;
    fc_load_state(k, rstate);
    if (count > 5) {
        /* random.py: setsize += 4 ** ceil(log(k * 3, 4)) */
        setsize += (int64_t)pow(4.0,
                                ceil(log((double)(count * 3)) / log(4.0)));
    }
    if (n <= setsize) {
        pool = malloc((size_t)n * sizeof(int64_t));
    } else {
        sel = calloc((size_t)n, 1);
    }
    for (i = 0; i < n; i++) {
        int64_t row = k->rowof[i], base = row * k->c;
        if (pool) {
            sample_range(&mt, n, count, chosen, pool);
        } else {
            for (t = 0; t < count; t++) {
                j = mt_below(&mt, n);
                while (sel[j]) j = mt_below(&mt, n);
                sel[j] = 1;
                chosen[t] = j;
            }
            for (t = 0; t < count; t++) sel[chosen[t]] = 0;
        }
        w = 0;
        for (t = 0; t < count; t++) {
            if (chosen[t] != i) {
                if (w == fill) break;
                k->vids[base + w] = chosen[t];
                k->vhops[base + w] = 0;
                w++;
            }
        }
        k->vlen[row] = w;
    }
    free(chosen);
    free(pool);
    free(sel);
    fc_store_state(k, rstate);
}

/* ------------------------------------------------------------------ */
/* Scheduler 2: the event heap (engine "fast-event").  fc_event_run is */
/* the whole loop; the two per-step entry points it dispatches to stay */
/* exported as the seam tests/simulation/test_kernel_steps.py pins the */
/* C steps through.  Unlike fc_run_cycle, the MT19937 state stays      */
/* resident between calls: fc_load_state / fc_store_state bracket a    */
/* scheduling slice.                                                   */
/* ------------------------------------------------------------------ */

void fc_event_setup(k_ctx *k, int64_t *mids, int64_t *mhops, int64_t *mlen,
                    int64_t *msrc, int64_t *mdst) {
    k->mids = mids; k->mhops = mhops; k->mlen = mlen;
    k->msrc = msrc; k->mdst = mdst;
}

/* A timer fires at `node`: select, then build the request into message
   slot `slot`.  Returns the peer (-1: no exchange starts).  Under
   non-omniscient selection the peer may be dead; the caller delivers
   anyway and the failure is counted at delivery, exactly like the
   object-per-node event engine. */
int64_t fc_event_begin(k_ctx *k, int64_t node, int64_t slot) {
    k_draw mt = mt_draw(k);
    int64_t off = slot * (k->c + 1);
    int64_t p = k_select(k, node, &mt);
    k->mlen[slot] =
        p < 0 ? 0 : k_payload(k, node, 0, k->mids + off, k->mhops + off);
    return p;
}

/* Deliver message slot `slot` to node `dst`.  For pull replies
   (reply_slot >= 0) the reply snapshot is built BEFORE the merge,
   exactly like the passive thread in Figure 1. */
void fc_event_deliver(k_ctx *k, int64_t dst, int64_t slot,
                      int64_t reply_slot) {
    k_draw mt = mt_draw(k);
    int64_t off = slot * (k->c + 1), roff = reply_slot * (k->c + 1);
    if (reply_slot >= 0)
        k->mlen[reply_slot] =
            k_payload(k, dst, 1, k->mids + roff, k->mhops + roff);
    k_receive(k, dst, k->mids + off, k->mhops + off, k->mlen[slot], &mt);
}

/* Whole-slice event loop: a native (tick, seq, data) binary min-heap
   over caller-owned int64 arrays, dispatching timers and deliveries
   entirely in C until a cycle boundary (observers run in Python), the
   end of the slice, or a capacity limit is hit.  Keys are unique
   (tick, seq) pairs, so the pop order is exactly the Python packed-int
   heap's order -- internal arrangement never matters. */

#define EVR_END 0
#define EVR_BOUNDARY 1
#define EVR_HEAP_FULL 2
#define EVR_POOL_FULL 3
#define EVR_EMPTY 4

#define EV_KIND_SHIFT 26
#define EV_IDX_MASK ((1 << EV_KIND_SHIFT) - 1)
#define EV_REQUEST (1 << EV_KIND_SHIFT)
#define EV_REPLY (2 << EV_KIND_SHIFT)

static void heap_sift_up(int64_t *ht, int64_t *hs, int64_t *hd,
                         int64_t pos, int64_t tick, int64_t seqv,
                         int64_t data) {
    while (pos > 0) {
        int64_t parent = (pos - 1) >> 1;
        if (ht[parent] < tick
            || (ht[parent] == tick && hs[parent] < seqv)) break;
        ht[pos] = ht[parent]; hs[pos] = hs[parent]; hd[pos] = hd[parent];
        pos = parent;
    }
    ht[pos] = tick; hs[pos] = seqv; hd[pos] = data;
}

void fc_heap_push(int64_t tick, int64_t seqv, int64_t data,
                  int64_t *ht, int64_t *hs, int64_t *hd,
                  int64_t *heap_len) {
    heap_sift_up(ht, hs, hd, (*heap_len)++, tick, seqv, data);
}

static void heap_remove_top(int64_t *ht, int64_t *hs, int64_t *hd,
                            int64_t n /* new length */) {
    int64_t tick = ht[n], seqv = hs[n], data = hd[n], pos = 0, child;
    while ((child = 2 * pos + 1) < n) {
        if (child + 1 < n
            && (ht[child + 1] < ht[child]
                || (ht[child + 1] == ht[child]
                    && hs[child + 1] < hs[child]))) child++;
        if (ht[child] > tick
            || (ht[child] == tick && hs[child] > seqv)) break;
        ht[pos] = ht[child]; hs[pos] = hs[child]; hd[pos] = hd[child];
        pos = child;
    }
    ht[pos] = tick; hs[pos] = seqv; hd[pos] = data;
}

/* What fc_event_run's send tail needs besides the context. */
typedef struct {
    int64_t *ht, *hs, *hd, *heap_len;
    int64_t *freelist, *free_len, *seq_io, *counters;
    int64_t loss_code, lat_code, const_delay;
    double loss_p, lat_a, lat_b, tick_scale;
} ev_net;

/* Ship message slot `slot` from src to dst at `tick`: a partition cuts
   the message before any draw, then loss is decided before latency is
   sampled, per message, exactly like the reference event engine;
   loss_code 1 = Bernoulli(loss_p); lat_code 0 = constant
   (const_delay ticks), 1 = uniform(lat_a + lat_b * random()),
   2 = exponential(-log(1 - random()) / lat_a), all bit-exact with the
   corresponding random.Random expressions. */
static void ev_send(k_ctx *k, const ev_net *net, int64_t tick, int64_t slot,
                    int64_t src, int64_t dst, int64_t kind) {
    int64_t delay;
    net->counters[2]++;                               /* sent */
    if (k_cut(k, src, dst)
        || (net->loss_code == 1 && fc_random(k) < net->loss_p)) {
        net->counters[3]++;                           /* lost */
        net->freelist[(*net->free_len)++] = slot;
        return;
    }
    delay = net->lat_code == 0 ? net->const_delay
        : net->lat_code == 1
            ? (int64_t)((net->lat_a + net->lat_b * fc_random(k))
                        * net->tick_scale)
            : (int64_t)(-log(1.0 - fc_random(k)) / net->lat_a
                        * net->tick_scale);
    k->msrc[slot] = src; k->mdst[slot] = dst;
    heap_sift_up(net->ht, net->hs, net->hd, (*net->heap_len)++,
                 tick + delay, (*net->seq_io)++, kind | slot);
}

/* Run the event loop until end_tick (inclusive), the next cycle
   boundary, an empty heap, or a capacity limit.  The caller re-enters
   after handling the return reason; counters accumulate
   {completed, failed, sent, lost} and now_io tracks the last dispatched
   tick (the Python scheduler's notion of "now"). */
int64_t fc_event_run(k_ctx *k, int64_t end_tick, int64_t boundary_tick,
                     int64_t *ht, int64_t *hs, int64_t *hd,
                     int64_t *heap_len, int64_t heap_cap,
                     int64_t *freelist, int64_t *free_len,
                     int64_t *pool_fresh, int64_t pool_cap,
                     int64_t *seq_io, int64_t *now_io,
                     int64_t loss_code, double loss_p,
                     int64_t lat_code, int64_t const_delay,
                     double lat_a, double lat_b,
                     double tick_scale, int64_t period_ticks,
                     int64_t *counters, int64_t *top_tick_out) {
    const ev_net net = {ht, hs, hd, heap_len, freelist, free_len, seq_io,
                        counters, loss_code, lat_code, const_delay,
                        loss_p, lat_a, lat_b, tick_scale};
    for (;;) {
        int64_t tick, data, slot, rslot, dst, p;
        if (*heap_len == 0) return EVR_EMPTY;
        tick = ht[0];
        if (tick > end_tick) return EVR_END;
        if (tick >= boundary_tick) { *top_tick_out = tick; return EVR_BOUNDARY; }
        /* conservative per-event guards: at most 2 pushes, 1 fresh slot */
        if (*heap_len + 2 > heap_cap) return EVR_HEAP_FULL;
        if (*free_len == 0 && *pool_fresh >= pool_cap) return EVR_POOL_FULL;
        data = hd[0];
        heap_remove_top(ht, hs, hd, --(*heap_len));
        *now_io = tick;

        if (data < EV_REQUEST) {                      /* timer */
            if (!k->alive[data]) continue;   /* the timer dies with the node */
            slot = *free_len ? freelist[--(*free_len)] : (*pool_fresh)++;
            p = fc_event_begin(k, data, slot);
            if (p >= 0) ev_send(k, &net, tick, slot, data, p, EV_REQUEST);
            else freelist[(*free_len)++] = slot;
            /* the timer survives even when no exchange started */
            heap_sift_up(ht, hs, hd, (*heap_len)++,
                         tick + period_ticks, (*seq_io)++, data);
            continue;
        }
        slot = data & EV_IDX_MASK;
        dst = k->mdst[slot];
        rslot = -1;
        if (!k->alive[dst]) {
            counters[1]++;                            /* failed */
        } else if (data >= EV_REPLY) {                /* reply delivery */
            fc_event_deliver(k, dst, slot, -1);
        } else {                                      /* request delivery */
            if (k->pull)
                rslot = *free_len ? freelist[--(*free_len)]
                                  : (*pool_fresh)++;
            fc_event_deliver(k, dst, slot, rslot);
            counters[0]++;                            /* completed */
        }
        freelist[(*free_len)++] = slot;
        if (rslot >= 0)
            ev_send(k, &net, tick, rslot, dst, k->msrc[slot], EV_REPLY);
    }
}

/* ------------------------------------------------------------------ */
/* Scheduler 3: BSP phases with keyed draws (engine "fast-sharded").   */
/* ------------------------------------------------------------------ */

/* Message record layout, stride 2*(c+1) + 3 int64 apiece:
   [src, dst, npay, ids[c+1], hops[c+1]]. */

/* Phase 1 (active threads, request half) for the ids of one shard:
   one request record per initiating node into `outbox`.  Requests
   across a partition are dropped here and counted in *failed; dead
   destinations are counted at delivery.  Returns the record count. */
int64_t fs_request_phase(k_ctx *k, uint64_t seed, uint64_t rnd,
                         int64_t shard, int64_t nshards, int64_t n_ids,
                         int64_t *outbox, int64_t *failed) {
    int64_t stride = 2 * (k->c + 1) + 3;
    int64_t w = 0, i;
    *failed = 0;
    for (i = shard; i < n_ids; i += nshards) {
        int64_t *msg = outbox + w * stride, p;
        k_draw draw;
        if (!k->alive[i]) continue;
        draw = fs_draw(seed, FS_SELECT, rnd, (uint64_t)i, 0);
        p = k_select(k, i, &draw);
        if (p < 0) continue;
        if (k_cut(k, i, p)) { (*failed)++; continue; }
        msg[0] = i; msg[1] = p;
        msg[2] = k_payload(k, i, 0, msg + 3, msg + 3 + k->c + 1);
        w++;
    }
    return w;
}

typedef struct { int64_t dst, src; int64_t *msg; } fs_ref;

static int fs_cmp(const void *x, const void *y) {
    const fs_ref *a = (const fs_ref *)x, *b = (const fs_ref *)y;
    if (a->dst != b->dst) return a->dst < b->dst ? -1 : 1;
    if (a->src != b->src) return a->src < b->src ? -1 : 1;
    return 0;
}

/* Phases 2 and 3: deliver every record whose destination belongs to
   this shard, in canonical (dst, src) order -- each source sends at
   most one request (and receives at most one reply) per round, so the
   order is total and identical however the records were boxed.  For
   requests under pull (`do_reply`), the reply snapshot is built BEFORE
   the merge, exactly like the passive thread of Figure 1.  `box_addrs`
   carries the outbox base addresses as int64 (the boxes may live in
   shared memory segments mapped at different addresses per process).
   out = {completed, failed, nreplies}. */
void fs_deliver(k_ctx *k, uint64_t seed, uint64_t rnd, int64_t is_request,
                int64_t shard, int64_t nshards,
                int64_t *box_addrs, int64_t *box_counts, int64_t nboxes,
                int64_t do_reply, int64_t *reply_box, int64_t *out) {
    int64_t stride = 2 * (k->c + 1) + 3, hops_at = 3 + k->c + 1;
    int64_t total = 0, nsel = 0, b, j;
    int64_t completed = 0, failed = 0, nreply = 0;
    fs_ref *refs;
    for (b = 0; b < nboxes; b++) total += box_counts[b];
    refs = malloc((size_t)(total ? total : 1) * sizeof(fs_ref));
    for (b = 0; b < nboxes; b++) {
        int64_t *box = (int64_t *)(intptr_t)box_addrs[b];
        for (j = 0; j < box_counts[b]; j++) {
            int64_t *msg = box + j * stride;
            if (msg[1] % nshards == shard) {
                refs[nsel].dst = msg[1];
                refs[nsel].src = msg[0];
                refs[nsel].msg = msg;
                nsel++;
            }
        }
    }
    qsort(refs, (size_t)nsel, sizeof(fs_ref), fs_cmp);
    for (j = 0; j < nsel; j++) {
        int64_t dst = refs[j].dst, src = refs[j].src, *msg = refs[j].msg;
        k_draw draw;
        if (!k->alive[dst]) {
            if (is_request) failed++;
            continue;
        }
        draw = fs_draw(seed, is_request ? FS_REQ : FS_REP, rnd,
                       (uint64_t)dst, (uint64_t)src);
        if (do_reply) {
            int64_t *rep = reply_box + nreply++ * stride;
            rep[0] = dst; rep[1] = src;
            rep[2] = k_payload(k, dst, 1, rep + 3, rep + hops_at);
        }
        k_receive(k, dst, msg + 3, msg + hops_at, msg[2], &draw);
        if (is_request) completed++;
    }
    free(refs);
    out[0] = completed; out[1] = failed; out[2] = nreply;
}
