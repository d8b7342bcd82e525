/*
 * Compiled hot loops of the exact simulation engine.
 *
 * Loaded through ctypes by repro.cache.native. Two entry points, each
 * a line-for-line port of the scalar Python path it replaces, which
 * stays in the tree as the oracle the differential tests compare to:
 *
 *   lru_access  - SetAssociativeCache._access_batch_lru: one batch of
 *                 references through an LRU cache kept in flat int64
 *                 arrays (per way: block and owner; per set: the ways
 *                 in recency order and the valid-way count).
 *   cbf_record  - the batched hash-mode branch of
 *                 SignatureUnit.record_events: fills first, then
 *                 evictions, with numpy's accumulate-then-clamp counts,
 *                 so saturation and underflow tallies match even when
 *                 counters were corrupted out of range.
 *
 * All state lives in buffers owned by Python objects; the structs hold
 * their addresses and are built once per cache or signature unit.
 */
#include <stdint.h>
#include <string.h>

typedef struct {
    int64_t *blocks;         /* [sets * ways] block held by each way */
    int64_t *owners;         /* core that filled each way */
    int64_t *order;          /* each set's ways, most recently used first */
    int64_t *lens;           /* [sets] valid ways per set: 0 .. lens-1 */
    int64_t set_mask;
    int64_t ways;
    const int64_t *refs;     /* input: the batch's block addresses */
    int64_t *fills;          /* outputs, capacity >= batch length */
    int64_t *fill_slots;
    int64_t *evictions;
    int64_t *evict_slots;
    int64_t *evict_fill_pos;
    int64_t *counts;         /* out: hits, fills, evictions */
} lru_cache;

/* Make room at order[0] by moving order[0 .. n-1] up one place. */
static void shift_down(int64_t *order, int64_t n)
{
    memmove(order + 1, order, (size_t)n * sizeof *order);
}

void lru_access(const lru_cache *c, int64_t core, int64_t n)
{
    const int64_t ways = c->ways;
    int64_t hits = 0, nf = 0, ne = 0;
    for (int64_t r = 0; r < n; r++) {
        const int64_t block = c->refs[r];
        const int64_t s = block & c->set_mask;
        const int64_t base = s * ways;
        const int64_t *blk = c->blocks + base;
        int64_t *order = c->order + base;
        const int64_t len = c->lens[s];
        int64_t way = 0;
        while (way < len && blk[way] != block)
            way++;
        if (way < len) {
            /* Hit: the way becomes the most recently used. */
            hits++;
            if (order[0] != way) {
                int64_t i = 1;
                while (order[i] != way)
                    i++;
                shift_down(order, i);
                order[0] = way;
            }
            continue;
        }
        /* Miss: refill the LRU way if the set is full, else the next one. */
        int64_t keep;
        if (len == ways) {
            way = order[len - 1];
            c->evictions[ne] = blk[way];
            c->evict_slots[ne] = base + way;
            c->evict_fill_pos[ne] = nf;
            ne++;
            keep = len - 1;
        } else {
            way = len;
            c->lens[s] = len + 1;
            keep = len;
        }
        shift_down(order, keep);
        order[0] = way;
        c->blocks[base + way] = block;
        c->owners[base + way] = core;
        c->fills[nf] = block;
        c->fill_slots[nf] = base + way;
        nf++;
    }
    c->counts[0] = hits;
    c->counts[1] = nf;
    c->counts[2] = ne;
}

typedef struct {
    int64_t *counters;       /* [entries] */
    int64_t entries;
    int64_t counter_max;
    uint64_t **filters;      /* one Core Filter word array per core */
    int64_t num_filters;
    uint64_t index_mask;     /* entries - 1 */
    int64_t index_bits;
    int64_t fold_bits;
    const int64_t *events;   /* input: fills, then evictions */
    int64_t *counts;         /* out: saturation excess, underflow deficit */
} cbf_unit;

/* XorFoldHash.hash_many for one address (salt index 0). */
static int64_t xor_fold(const cbf_unit *u, int64_t block)
{
    const uint64_t v = (uint64_t)block;
    uint64_t acc = 0;
    for (int64_t shift = 0; shift < u->fold_bits; shift += u->index_bits)
        acc ^= (v >> shift) & u->index_mask;
    return (int64_t)acc;
}

/* numpy's whole-array clamps, for counters that may have left [0, max]
 * outside this kernel: clamp high when the batch had fills, low when it
 * had evictions. Returns the excess and adds the deficit to *deficit. */
static int64_t clamp_all(int64_t *c, int64_t n, int64_t max, int high, int low,
                         int64_t *deficit)
{
    int64_t excess = 0;
    for (int64_t j = 0; j < n; j++) {
        if (high && c[j] > max) {
            excess += c[j] - max;
            c[j] = max;
        } else if (low && c[j] < 0) {
            *deficit -= c[j];
            c[j] = 0;
        }
    }
    return excess;
}

/* Within one stage, clamping after every event equals numpy's clamp
 * after the whole stage: a counter, once clamped, only moves further
 * the same way until the stage ends. */
void cbf_record(const cbf_unit *u, int64_t core, int64_t nf, int64_t ne,
                int64_t scan_all)
{
    int64_t *counters = u->counters;
    const int64_t max = u->counter_max;
    int64_t excess = 0, deficit = 0;
    uint64_t *cf = u->filters[core];
    for (int64_t e = 0; e < nf; e++) {
        const int64_t i = xor_fold(u, u->events[e]);
        if (++counters[i] > max) {
            excess += counters[i] - max;
            counters[i] = max;
        }
        cf[i >> 6] |= (uint64_t)1 << (i & 63);
    }
    /* Counters in [0, max] before the batch leave it only where the batch
     * touches them; scan_all catches any that did not start there. */
    if (scan_all)
        excess += clamp_all(counters, u->entries, max, nf > 0, ne > 0, &deficit);
    const int64_t *evictions = u->events + nf;
    for (int64_t e = 0; e < ne; e++) {
        const int64_t i = xor_fold(u, evictions[e]);
        if (--counters[i] < 0) {
            deficit -= counters[i];
            counters[i] = 0;
        }
        /* A counter back at zero clears its bit in every Core Filter. */
        if (counters[i] == 0) {
            const uint64_t keep = ~((uint64_t)1 << (i & 63));
            for (int64_t f = 0; f < u->num_filters; f++)
                u->filters[f][i >> 6] &= keep;
        }
    }
    u->counts[0] = excess;
    u->counts[1] = deficit;
}
