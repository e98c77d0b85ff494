/* The compiled loops of the request path. Hit flags of a fresh cache
 * replaying a request stream, one function per policy, and the tally of
 * those flags: ranks should be ints in [0, n_ranks) and 1 <= capacity
 * <= n_ranks; each replay writes one flag per request, 1 for a hit.
 * These return 0 on success, -1 when they cannot allocate their arrays
 * over ranks, or 1 at the first rank outside its range, before they read
 * or write any array at that rank: the ranks may have changed since
 * they were last checked. Then the draw of ranks from a CDF, and the
 * writer and reader of a trace's rank lines.
 */
#include <stdint.h>
#include <stdlib.h>

/* LFU: evicts the resident with the smallest (count, insertion
 * position). Counts belong to ranks and survive eviction. The newest
 * admission waits in a pending slot; the other residents, the set S,
 * are marked in member[] and sit in a binary min-heap of (count,
 * insertion position, rank) entries whose stored count may lag the
 * rank's count but never exceeds it, so heap[0].count is a lower bound
 * on every count in S. A hit only counts. While the cache fills, the
 * entries are appended as they join S, and the heap is ordered once,
 * when S reaches capacity - 1 entries. A count tie evicts the older
 * entry, so on a miss on a full cache the pending entry goes, without
 * a heap operation, when its count is below that bound. Otherwise
 * lagging tops are refreshed until the top is current or above the
 * pending count; a current top that this count reaches is the victim,
 * and the pending entry takes its place. _lfu_python in cache.py runs
 * the same algorithm, so both make the same decision at every request. */
typedef struct {
    int64_t count, seq, rank;
} entry;

static int below(const entry *a, const entry *b)
{
    return a->count < b->count || (a->count == b->count && a->seq < b->seq);
}

/* Moves heap[i], whose key may have grown, down to its place. */
static void sift_down(entry *heap, int64_t size, int64_t i)
{
    entry moving = heap[i];
    int64_t child;
    while ((child = 2 * i + 1) < size) {
        if (child + 1 < size && below(&heap[child + 1], &heap[child]))
            child++;
        if (!below(&heap[child], &moving))
            break;
        heap[i] = heap[child];
        i = child;
    }
    heap[i] = moving;
}

int lfu_flags(const int64_t *ranks, int64_t total, int64_t n_ranks,
              int64_t capacity, uint8_t *flags)
{
    int64_t *count = calloc(n_ranks, sizeof *count);
    uint8_t *member = calloc(n_ranks, 1);
    entry *heap = malloc(capacity * sizeof *heap);
    int64_t size = 0, pending = -1, admitted = -1;  /* -1: an empty cache */
    if (!count || !member || !heap) {
        free(count), free(member), free(heap);
        return -1;
    }
    int status = 0;
    for (int64_t i = 0; i < total; i++) {
        int64_t rank = ranks[i];
        if ((uint64_t)rank >= (uint64_t)n_ranks) {
            status = 1;
            break;
        }
        count[rank]++;
        flags[i] = member[rank] || rank == pending;
        if (flags[i])
            continue;
        if (pending >= 0 && size + 1 < capacity) {  /* room: pending joins S */
            heap[size++] = (entry){count[pending], admitted, pending};
            member[pending] = 1;
            if (size == capacity - 1)   /* S is full: order it once */
                for (int64_t j = size / 2 - 1; j >= 0; j--)
                    sift_down(heap, size, j);
        } else      /* full, or empty: size first, so count[-1] is unread */
            while (size && count[pending] >= heap[0].count) {
                int64_t top = heap[0].rank;
                if (heap[0].count == count[top]) {  /* current: it goes */
                    member[top] = 0;
                    member[pending] = 1;
                    heap[0] = (entry){count[pending], admitted, pending};
                    sift_down(heap, size, 0);
                    break;
                }
                heap[0].count = count[top];         /* lagging: refresh */
                sift_down(heap, size, 0);
            }
        pending = rank;
        admitted = i;
    }
    free(count), free(member), free(heap);
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
 * n_bins zeroed slots. Returns 0, or 1 at the first rank outside
 * [0, n_bins), before it is written. */
int tally(const int64_t *ranks, int64_t total, const uint8_t *flags,
          int64_t n_bins, int64_t *hits)
{
    for (int64_t i = 0; i < total; i++) {
        if ((uint64_t)ranks[i] >= (uint64_t)n_bins)
            return 1;
        hits[ranks[i]] += flags[i];
    }
    return 0;
}

/* Inverse-CDF draws: out[i] is 1 plus the number a of the cdf entries,
 * non-decreasing and ending at 1, that are <= u[i], a uniform in
 * [0, 1). edges[k] counts the entries <= k / buckets, so for k = u[i] *
 * buckets, a lies in [lo, hi] = [edges[k], edges[k + 1]], and lo < the
 * number of entries. The bisection keeps that; once hi <= lo + 1, a is
 * lo or lo + 1, and most buckets start there. */
void draw(const double *u, int64_t total, const double *cdf,
          const int64_t *edges, int64_t buckets, int64_t *out)
{
    for (int64_t i = 0; i < total; i++) {
        int64_t k = (int64_t)(u[i] * buckets);
        int64_t lo = edges[k], hi = edges[k + 1];
        while (hi - lo > 1) {
            int64_t mid = lo + (hi - lo) / 2;
            if (cdf[mid] <= u[i])
                lo = mid;
            else
                hi = mid;
        }
        out[i] = lo + (cdf[lo] <= u[i]) + 1;
    }
}

/* Writes the decimal digits of each rank and a \n into out, at most 20
 * bytes for a rank >= 0 and 21 for any other; returns the number of
 * bytes written. */
int64_t write_ranks(const int64_t *ranks, int64_t total, uint8_t *out)
{
    uint8_t *at = out;
    for (int64_t i = 0; i < total; i++) {
        uint8_t digits[20];
        int n = 0;
        uint64_t value = (uint64_t)ranks[i];
        do
            digits[n++] = (uint8_t)('0' + value % 10);
        while (value /= 10);
        while (n)
            *at++ = digits[--n];
        *at++ = '\n';
    }
    return at - out;
}

/* The whitespace a trace line may hold around its rank. */
static int is_space(uint8_t byte)
{
    return byte == ' ' || (byte >= '\t' && byte <= '\r' && byte != '\n')
           || (byte >= 0x1c && byte <= 0x1f);
}

/* Reads the rank lines of a trace body of size bytes: only \n ends a
 * line, and the body's end ends the last one. Each line is blank or one
 * run of ASCII digits, a rank in [1, n_objects], with whitespace around
 * it. Writes each rank into ranks, which holds one per line, and returns
 * their number; *bad is -1, or the index from 0 of the first line that
 * breaks this, where the reading stops. A run too long for int64 reads
 * as INT64_MAX, above every n_objects. */
int64_t read_ranks(const uint8_t *body, int64_t size, int64_t n_objects,
                   int64_t *ranks, int64_t *bad)
{
    const uint8_t *at = body, *end = body + size;
    int64_t count = 0;
    for (int64_t line = 0;; line++) {
        int64_t value = 0;
        int digits = 0;
        while (at < end && is_space(*at))
            at++;
        for (; at < end && (unsigned)(*at - '0') < 10; at++, digits = 1) {
            int digit = *at - '0';
            if (value < (INT64_MAX - 9) / 10)
                value = value * 10 + digit;
            else
                value = value > (INT64_MAX - digit) / 10 ? INT64_MAX
                                                         : value * 10 + digit;
        }
        while (at < end && is_space(*at))
            at++;
        if ((at < end && *at != '\n')
            || (digits && (value < 1 || value > n_objects))) {
            *bad = line;
            return count;
        }
        if (digits)
            ranks[count++] = value;
        if (at == end) {
            *bad = -1;
            return count;
        }
        at++;
    }
}
