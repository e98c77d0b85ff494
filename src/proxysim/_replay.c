/* Hit flags of a fresh cache replaying a request stream, one function
 * per policy, and the tally of those flags. Ranks should be ints in
 * [0, n_ranks) and 1 <= capacity <= n_ranks; each replay writes one flag
 * per request, 1 for a hit, and returns 0, -1 when it cannot allocate
 * its arrays over ranks, or 1 at the first rank outside [0, n_ranks),
 * before it reads any array at that rank: the ranks may have changed
 * since they were last checked.
 */
#include <stdint.h>
#include <stdlib.h>

/* LFU: evicts the resident with the smallest (count, insertion
 * position). Counts belong to ranks and survive eviction. The residents
 * sit in a binary min-heap on that key; slot[r] is rank r's place in it,
 * or -1 when r is not resident. */
typedef struct {
    int64_t count, seq, rank;
} entry;

static int below(const entry *a, const entry *b)
{
    return a->count < b->count || (a->count == b->count && a->seq < b->seq);
}

/* Moves heap[i], whose key may have grown, down to its place. */
static void sift_down(entry *heap, int64_t size, int64_t i, int64_t *slot)
{
    entry moving = heap[i];
    int64_t child;
    while ((child = 2 * i + 1) < size) {
        if (child + 1 < size && below(&heap[child + 1], &heap[child]))
            child++;
        if (!below(&heap[child], &moving))
            break;
        heap[i] = heap[child];
        slot[heap[i].rank] = i;
        i = child;
    }
    heap[i] = moving;
    slot[moving.rank] = i;
}

/* Moves heap[i], a new entry, up to its place. */
static void sift_up(entry *heap, int64_t i, int64_t *slot)
{
    entry moving = heap[i];
    while (i > 0 && below(&moving, &heap[(i - 1) / 2])) {
        heap[i] = heap[(i - 1) / 2];
        slot[heap[i].rank] = i;
        i = (i - 1) / 2;
    }
    heap[i] = moving;
    slot[moving.rank] = i;
}

int lfu_flags(const int64_t *ranks, int64_t total, int64_t n_ranks,
              int64_t capacity, uint8_t *flags)
{
    int64_t *count = calloc(n_ranks, sizeof *count);
    int64_t *slot = malloc(n_ranks * sizeof *slot);
    entry *heap = malloc(capacity * sizeof *heap);
    int64_t size = 0;
    if (!count || !slot || !heap) {
        free(count), free(slot), free(heap);
        return -1;
    }
    for (int64_t r = 0; r < n_ranks; r++)
        slot[r] = -1;
    int status = 0;
    for (int64_t i = 0; i < total; i++) {
        int64_t rank = ranks[i], at;
        if ((uint64_t)rank >= (uint64_t)n_ranks) {
            status = 1;
            break;
        }
        at = slot[rank];
        count[rank]++;
        flags[i] = at >= 0;
        if (at >= 0) {
            heap[at].count++;
            sift_down(heap, size, at, slot);
        } else if (size < capacity) {
            heap[size] = (entry){count[rank], i, rank};
            sift_up(heap, size++, slot);
        } else {
            slot[heap[0].rank] = -1;
            heap[0] = (entry){count[rank], i, rank};
            sift_down(heap, size, 0, slot);
        }
    }
    free(count), free(slot), free(heap);
    return status;
}

/* LRU: the residents form a doubly linked list over ranks, most recently
 * used first; older[r] and newer[r] are r's neighbours, -1 past an end. */
int lru_flags(const int64_t *ranks, int64_t total, int64_t n_ranks,
              int64_t capacity, uint8_t *flags)
{
    int64_t *older = malloc(n_ranks * sizeof *older);
    int64_t *newer = malloc(n_ranks * sizeof *newer);
    uint8_t *held = calloc(n_ranks, 1);
    int64_t head = -1, tail = -1, size = 0;
    if (!older || !newer || !held) {
        free(older), free(newer), free(held);
        return -1;
    }
    int status = 0;
    for (int64_t i = 0; i < total; i++) {
        int64_t rank = ranks[i];
        if ((uint64_t)rank >= (uint64_t)n_ranks) {
            status = 1;
            break;
        }
        flags[i] = held[rank];
        if (rank == head)
            continue;
        if (held[rank]) {             /* unlink it; it is not the head */
            older[newer[rank]] = older[rank];
            if (rank == tail)
                tail = newer[rank];
            else
                newer[older[rank]] = newer[rank];
        } else if (size < capacity) {
            held[rank] = 1;
            size++;
        } else {                      /* evict the tail */
            held[tail] = 0;
            held[rank] = 1;
            tail = newer[tail];
            if (tail >= 0)
                older[tail] = -1;
            else
                head = -1;
        }
        older[rank] = head;
        newer[rank] = -1;
        if (head >= 0)
            newer[head] = rank;
        else
            tail = rank;
        head = rank;
    }
    free(older), free(newer), free(held);
    return status;
}

/* The tally of one replay's flags: adds each flag to hits[rank], of
 * n_bins zeroed slots. Returns 0, or -1 at the first rank outside
 * [0, n_bins), before it is written. */
int tally(const int64_t *ranks, int64_t total, const uint8_t *flags,
          int64_t n_bins, int64_t *hits)
{
    for (int64_t i = 0; i < total; i++) {
        if ((uint64_t)ranks[i] >= (uint64_t)n_bins)
            return -1;
        hits[ranks[i]] += flags[i];
    }
    return 0;
}
