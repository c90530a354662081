/*
 * Median-split kd-tree node arrays, computed natively.
 *
 * kdbuild() fills the four node arrays of repro.spatial.kdtree's numpy
 * level build (_build_levels) for an (n, 3) row-major block of FINITE
 * doubles, array-identical to it.  That build, per node:
 *
 *   - splits along the widest axis: span = max - min in double, and the
 *     first maximum wins (an exact tie keeps the lower axis);
 *   - orders the node's segment by that coordinate with a stable sort,
 *     so ties (-0.0 == 0.0 included) keep their current order: the
 *     order the parent's sort left them in, and id order at the root;
 *   - takes element len / 2 as the node's point; the elements before it
 *     form the left subtree's segment and the ones after it the right's;
 *   - numbers nodes in preorder from the root 0: the left child of node
 *     i is i + 1, the right child i + 1 + len / 2, and -1 marks none.
 *
 * Unrolled, those stable sorts order a node's segment by one composite
 * key: its split coordinate, then the coordinates its ancestors split
 * on, nearest ancestor first, then the point id.  An axis that repeats
 * further up adds nothing, so the key is at most three coordinates and
 * the id: a total order.  The node's median and its two child segments
 * therefore depend only on the segment's point set, and this build
 * never sorts a segment.  It keeps three lists of the segment's ids,
 * one per axis, each ordered by that coordinate (ties in any order);
 * the span of an axis is read off its list's ends, the median is
 * element len / 2 of the split axis's list unless its coordinate ties
 * with neighbours (then only that tie group is sorted, by the rest of
 * the key), and one stable partition per list hands each child its
 * three ordered lists.  That is O(n) work per tree level after three
 * initial sorts.
 *
 * Non-finite input is the caller's to route elsewhere: NaN breaks the
 * order `<` gives, and numpy's span and axis rules differ on it.  Build
 * with -ffp-contract=off and without -ffast-math, so the spans are plain
 * IEEE double subtractions and subnormals stay exact.  C99, no Python
 * headers; the caller owns every array.
 */

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* Runs this short are insertion-sorted before the merge passes. */
#define RUN 16

typedef struct {
    const double *points;  /* (n, 3), row-major */
    int8_t *axis;
    int64_t *left;
    int64_t *right;
    int64_t *point_index;
    int64_t *by_axis[3];   /* per axis: ids by that coordinate */
    int64_t *scratch;      /* n ids */
    int64_t *group;        /* n ids */
    uint8_t *side;         /* per id: 0 left, 1 right, 2 the median */
} build_state;

/* A composite key: coordinates on axes[0 .. count), then the id. */
typedef struct {
    const double *points;
    int axes[3];
    int count;
} order_key;

static int64_t min64(int64_t a, int64_t b) { return a < b ? a : b; }

/* Does point i come before point j under key k? */
static int before(const order_key *k, int64_t i, int64_t j)
{
    for (int t = 0; t < k->count; ++t) {
        double x = k->points[3 * i + k->axes[t]];
        double y = k->points[3 * j + k->axes[t]];
        if (x < y)
            return 1;
        if (y < x)
            return 0;
    }
    return i < j;
}

/* Sort ids[0, n) by key k: insertion-sorted runs, then bottom-up
 * merges through tmp (n entries).  The key is a total order, so the
 * result does not depend on the sort's stability. */
static void sort_ids(const order_key *k, int64_t *ids, int64_t *tmp,
                     int64_t n)
{
    for (int64_t lo = 0; lo < n; lo += RUN) {
        int64_t hi = min64(lo + RUN, n);
        for (int64_t i = lo + 1; i < hi; ++i) {
            int64_t id = ids[i];
            int64_t j = i;
            for (; j > lo && before(k, id, ids[j - 1]); --j)
                ids[j] = ids[j - 1];
            ids[j] = id;
        }
    }
    int64_t *src = ids, *dst = tmp;
    for (int64_t width = RUN; width < n; width *= 2) {
        for (int64_t lo = 0; lo < n; lo += 2 * width) {
            int64_t mid = min64(lo + width, n);
            int64_t hi = min64(lo + 2 * width, n);
            int64_t i = lo, j = mid, out = lo;
            while (i < mid && j < hi)
                dst[out++] = before(k, src[j], src[i]) ? src[j++]
                                                        : src[i++];
            while (i < mid)
                dst[out++] = src[i++];
            while (j < hi)
                dst[out++] = src[j++];
        }
        int64_t *swap = src;
        src = dst;
        dst = swap;
    }
    if (src != ids)
        memcpy(ids, src, (size_t)n * sizeof *ids);
}

/* An unsigned key that orders like the finite double x: the sign bit
 * flipped for x >= +0.0, every bit for x <= -0.0.  -0.0 sorts just
 * below +0.0, so coordinates that compare equal stay adjacent. */
static uint64_t sortable(double x)
{
    uint64_t u;
    memcpy(&u, &x, sizeof u);
    return u >> 63 ? ~u : u | UINT64_C(1) << 63;
}

/* LSD radix sort of ids[0, n) by key[0, n), a byte per pass, through
 * key_tmp / ids_tmp (n entries each). */
static void radix_sort(uint64_t *key, int64_t *ids, uint64_t *key_tmp,
                       int64_t *ids_tmp, int64_t n)
{
    int64_t *const out = ids;
    int64_t count[8][256];
    memset(count, 0, sizeof count);
    for (int64_t i = 0; i < n; ++i)
        for (int b = 0; b < 8; ++b)
            ++count[b][key[i] >> 8 * b & 255];
    for (int b = 0; b < 8; ++b) {
        if (count[b][key[0] >> 8 * b & 255] == n)
            continue;  /* every key has this byte: the pass moves nothing */
        int64_t offset = 0;
        for (int d = 0; d < 256; ++d) {
            int64_t c = count[b][d];
            count[b][d] = offset;
            offset += c;
        }
        for (int64_t i = 0; i < n; ++i) {
            int64_t at = count[b][key[i] >> 8 * b & 255]++;
            key_tmp[at] = key[i];
            ids_tmp[at] = ids[i];
        }
        uint64_t *swap_key = key;
        key = key_tmp;
        key_tmp = swap_key;
        int64_t *swap_ids = ids;
        ids = ids_tmp;
        ids_tmp = swap_ids;
    }
    if (ids != out)
        memcpy(out, ids, (size_t)n * sizeof *out);
}

/* Build the subtree rooted at `node` over the segment [lo, lo + len)
 * of the three lists.  recent[0 .. nrecent) are the distinct axes the
 * ancestors split on, nearest first. */
static void build(build_state *s, int64_t node, int64_t lo, int64_t len,
                  const int *recent, int nrecent)
{
    const double *p = s->points;
    int path[3] = {0, 0, 0};
    for (int t = 0; t < nrecent; ++t)
        path[t] = recent[t];
    /* Recurse into the left child and loop on the right one, so the C
     * stack holds one frame per tree level. */
    while (len > 0) {
        int split = 0;
        double widest = 0.0;
        for (int a = 0; a < 3; ++a) {
            const int64_t *ids = s->by_axis[a] + lo;
            double span = p[3 * ids[len - 1] + a] - p[3 * ids[0] + a];
            if (a == 0 || span > widest) {
                widest = span;
                split = a;
            }
        }

        /* The split list orders the segment by its coordinate; the
         * full key decides only inside the tie group around len / 2. */
        const int64_t *ordered = s->by_axis[split] + lo;
        int64_t half = len / 2;
        double at = p[3 * ordered[half] + split];
        int64_t g0 = half, g1 = half + 1;
        while (g0 > 0 && p[3 * ordered[g0 - 1] + split] == at)
            --g0;
        while (g1 < len && p[3 * ordered[g1] + split] == at)
            ++g1;
        uint8_t *side = s->side;
        for (int64_t i = 0; i < g0; ++i)
            side[ordered[i]] = 0;
        for (int64_t i = g1; i < len; ++i)
            side[ordered[i]] = 1;
        int64_t *group = s->group;
        memcpy(group, ordered + g0, (size_t)(g1 - g0) * sizeof *group);
        order_key rest = {p, {0, 0, 0}, 0};
        for (int t = 0; t < nrecent; ++t)
            if (path[t] != split)
                rest.axes[rest.count++] = path[t];
        sort_ids(&rest, group, s->scratch, g1 - g0);
        for (int64_t i = 0; i < g1 - g0; ++i)
            side[group[i]] = g0 + i < half ? 0 : 1;
        int64_t median = group[half - g0];
        side[median] = 2;

        /* Stable partition of each list: the left child's ids stay in
         * front, the right child's follow the median's slot. */
        int64_t right_len = len - half - 1;
        for (int a = 0; a < 3; ++a) {
            if (a == split && g1 - g0 == 1)
                continue;  /* already left ids, the median, right ids */
            int64_t *ids = s->by_axis[a] + lo;
            int64_t n_left = 0, n_right = 0;
            for (int64_t i = 0; i < len; ++i) {
                int64_t id = ids[i];
                ids[n_left] = id;
                s->scratch[n_right] = id;
                n_left += side[id] == 0;
                n_right += side[id] == 1;
            }
            ids[half] = median;
            memcpy(ids + half + 1, s->scratch,
                   (size_t)right_len * sizeof *ids);
        }

        s->axis[node] = (int8_t)split;
        s->point_index[node] = median;
        s->left[node] = half > 0 ? node + 1 : -1;
        s->right[node] = right_len > 0 ? node + 1 + half : -1;
        /* Both children's ancestors: this node's axis, then the rest. */
        path[0] = split;
        for (int t = 0; t < rest.count; ++t)
            path[t + 1] = rest.axes[t];
        nrecent = rest.count + 1;
        build(s, node + 1, lo, half, path, nrecent);
        node += 1 + half;
        lo += half + 1;
        len = right_len;
    }
}

/* Fill axis, left, right and point_index (n entries each) for the
 * (n, 3) row-major points.  Returns 0, or -1 when scratch memory
 * cannot be allocated (the outputs are then unspecified). */
int kdbuild(int64_t n, const double *points, int8_t *axis, int64_t *left,
            int64_t *right, int64_t *point_index)
{
    if (n <= 0)
        return 0;
    int64_t *ids = malloc(5 * (size_t)n * sizeof *ids);
    uint64_t *keys = malloc(2 * (size_t)n * sizeof *keys);
    uint8_t *side = malloc((size_t)n);
    if (ids == NULL || keys == NULL || side == NULL) {
        free(ids);
        free(keys);
        free(side);
        return -1;
    }
    build_state s = {points, axis, left, right, point_index,
                     {ids, ids + n, ids + 2 * n}, ids + 3 * n, ids + 4 * n,
                     side};
    for (int a = 0; a < 3; ++a) {
        for (int64_t i = 0; i < n; ++i) {
            keys[i] = sortable(points[3 * i + a]);
            s.by_axis[a][i] = i;
        }
        radix_sort(keys, s.by_axis[a], keys + n, s.scratch, n);
    }
    int no_ancestors[3] = {0, 0, 0};
    build(&s, 0, 0, n, no_ancestors, 0);
    free(ids);
    free(keys);
    free(side);
    return 0;
}
