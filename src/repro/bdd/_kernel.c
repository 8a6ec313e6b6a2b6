/* Native kernel of the int-table BDD manager (repro.bdd.bdd).
 *
 * One extension type, Kernel, holds a manager's node table, unique
 * (hash-cons) table and operation cache, and runs the recursive
 * operations as METH_FASTCALL methods.  The algorithms are those of
 * bdd.PyBDDManager, step for step: the same terminal shortcuts, lo
 * before hi, one never-evicted op cache counted the same way.  So node
 * handles, size() and every cache_stats() value equal the Python
 * manager's for any op sequence (tests/test_bdd_differential.py).
 *
 * Tables.  Nodes are three parallel arrays indexed by handle; handles
 * stay below 2^26 as in Python.  The unique table is open-addressed and
 * stores only handles: a slot's key is the full (level, lo, hi) triple
 * read back from the node arrays.  Op-cache entries are (a, b, r) with
 * a = op << 27 | u (never 0, since u >= 2 past the terminal cases), and
 * b the second operand, the exists level-set id, or level << 1 | value
 * for restrict.  Level sets are interned per manager as bitsets, so they
 * may hold any number of levels below 2^20.
 *
 * Crossing back into Python.  configure() hands over the fault-injection
 * module and MemoryCeilingExceeded once.  A bound guard's note_nodes()
 * is called every 256 allocations, after the node is fully stored, as
 * the Python _mk does.  The bdd.apply probe is called after each binary
 * apply miss has stored its result, when the faults module is ARMED.
 * A corrupted result escapes to Python only from the outermost apply;
 * inside a recursion its use raises IndexError at once, so no corrupted
 * handle is ever stored here.  Any exception unwinds the recursion with
 * every table entry either complete or never written.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <structmember.h>
#include <stdint.h>

#define CAPACITY (1u << 26)
#define MAX_LEVEL (1 << 20)
/* Recursion depth (BDD levels on one path) before RecursionError. */
#define MAX_DEPTH (1 << 14)
/* Return codes below 0: -1 is a raised exception, CORRUPT a probe's
 * corrupted result (held in Kernel.corrupt) on its way out. */
#define CORRUPT (-2)

enum { OP_AND, OP_OR, OP_NOT, OP_EXISTS, OP_RESTRICT, N_OPS };
static const char *const OP_NAMES[N_OPS] = {
    "cache_and", "cache_or", "cache_not", "cache_exists", "cache_restrict"};

typedef struct {
    uint32_t a, b, r;
} Entry;

typedef struct {
    uint64_t *bits;
    int32_t max;
} LevelSet;

typedef struct {
    PyObject_HEAD
    int32_t *var;
    uint32_t *lo, *hi;
    uint32_t n, cap;
    uint32_t *uniq;     /* handle per slot, 0 = empty */
    int ushift;         /* 64 - log2(slots) */
    Entry *ops;
    int oshift;
    size_t ocount;
    long long hits, misses, entries[N_OPS];
    PyObject *sets;     /* level set -> set id */
    LevelSet *lsets;
    Py_ssize_t nsets;
    PyObject *guard;
    PyObject *corrupt;
    int depth;
} Kernel;

static PyObject *faults_dict, *ceiling_error;
static PyObject *str_ARMED, *str_fire, *str_probe, *str_note_nodes;

/* -- hashing: Fibonacci hashing on the top bits ------------------------- */

#define SLOTS(shift) ((size_t)1 << (64 - (shift)))

static inline size_t
slot_of(uint64_t a, uint64_t b, int shift)
{
    return (size_t)((a * 0x9E3779B97F4A7C15ULL ^ b * 0xC2B2AE3D27D4EB4FULL) >> shift);
}

static inline size_t
node_slot(int32_t level, uint32_t lo, uint32_t hi, int shift)
{
    return slot_of((uint64_t)(uint32_t)level << 32 | lo, hi, shift);
}

/* -- errors ------------------------------------------------------------- */

static int64_t
too_deep(void)
{
    PyErr_SetString(PyExc_RecursionError,
                    "BDD deeper than the native kernel's recursion limit");
    return -1;
}

/* A recursive call failed, or returned a corrupted handle, whose use
 * here is its first use. */
static int64_t
child_failed(Kernel *k, int64_t r)
{
    if (r == CORRUPT) {
        Py_CLEAR(k->corrupt);
        PyErr_SetString(PyExc_IndexError,
                        "BDD node handle out of range (corrupted result)");
    }
    return -1;
}

static int64_t
capacity_exceeded(uint32_t idx)
{
    if (ceiling_error == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *exc = PyObject_CallFunction(
        ceiling_error, "N",
        PyUnicode_FromFormat("BDD unique table exceeded int-table capacity (%u nodes)",
                             CAPACITY));
    if (exc != NULL) {
        PyObject *counters = Py_BuildValue("{s:I}", "bdd_nodes", idx);
        if (counters == NULL || PyObject_SetAttrString(exc, "counters", counters) < 0) {
            Py_XDECREF(counters);
            Py_DECREF(exc);
            return -1;
        }
        Py_DECREF(counters);
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
        Py_DECREF(exc);
    }
    return -1;
}

/* -- node table --------------------------------------------------------- */

static int
grow(void **p, size_t n, size_t size)
{
    void *q = PyMem_Realloc(*p, n * size);
    if (q == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    *p = q;
    return 0;
}

static int
uniq_resize(Kernel *k)
{
    int shift = k->ushift - 1;
    size_t mask = SLOTS(shift) - 1;
    uint32_t *t = PyMem_Calloc(SLOTS(shift), sizeof *t);
    if (t == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (uint32_t i = 2; i < k->n; i++) {
        size_t h = node_slot(k->var[i], k->lo[i], k->hi[i], shift);
        while (t[h])
            h = (h + 1) & mask;
        t[h] = i;
    }
    PyMem_Free(k->uniq);
    k->uniq = t;
    k->ushift = shift;
    return 0;
}

static int64_t
mk(Kernel *k, int32_t level, uint32_t lo, uint32_t hi)
{
    if (lo == hi)
        return lo;
    /* Keep the load at most 2/3 (n - 2 nodes are in the table). */
    if ((size_t)(k->n - 1) * 3 > SLOTS(k->ushift) * 2 && uniq_resize(k) < 0)
        return -1;
    size_t mask = SLOTS(k->ushift) - 1;
    size_t h = node_slot(level, lo, hi, k->ushift);
    uint32_t i;
    while ((i = k->uniq[h]) != 0) {
        if (k->lo[i] == lo && k->hi[i] == hi && k->var[i] == level)
            return i;
        h = (h + 1) & mask;
    }
    uint32_t idx = k->n;
    if (idx >= CAPACITY)
        return capacity_exceeded(idx);
    if (idx == k->cap) {
        size_t cap = (size_t)k->cap * 2;
        if (grow((void **)&k->var, cap, sizeof *k->var) < 0
            || grow((void **)&k->lo, cap, sizeof *k->lo) < 0
            || grow((void **)&k->hi, cap, sizeof *k->hi) < 0)
            return -1;
        k->cap = (uint32_t)cap;
    }
    k->var[idx] = level;
    k->lo[idx] = lo;
    k->hi[idx] = hi;
    k->uniq[h] = idx;
    k->n = idx + 1;
    /* Probe the guard every 256 allocations, as the Python _mk does. */
    if (!(idx & 255) && k->guard != NULL && k->guard != Py_None) {
        PyObject *count = PyLong_FromUnsignedLong(idx + 1);
        if (count == NULL)
            return -1;
        PyObject *res = PyObject_CallMethodOneArg(k->guard, str_note_nodes, count);
        Py_DECREF(count);
        if (res == NULL)
            return -1;
        Py_DECREF(res);
    }
    return idx;
}

/* -- operation cache ---------------------------------------------------- */

static inline int64_t
op_get(Kernel *k, uint32_t a, uint32_t b)
{
    size_t mask = SLOTS(k->oshift) - 1;
    size_t h = slot_of(a, b, k->oshift);
    Entry *e;
    while ((e = &k->ops[h])->a != 0) {
        if (e->a == a && e->b == b) {
            k->hits++;
            return e->r;
        }
        h = (h + 1) & mask;
    }
    k->misses++;
    return -1;
}

static int
ops_resize(Kernel *k)
{
    int shift = k->oshift - 1;
    size_t mask = SLOTS(shift) - 1, old = SLOTS(k->oshift);
    Entry *t = PyMem_Calloc(SLOTS(shift), sizeof *t);
    if (t == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    for (size_t j = 0; j < old; j++) {
        Entry *e = &k->ops[j];
        if (e->a == 0)
            continue;
        size_t h = slot_of(e->a, e->b, shift);
        while (t[h].a)
            h = (h + 1) & mask;
        t[h] = *e;
    }
    PyMem_Free(k->ops);
    k->ops = t;
    k->oshift = shift;
    return 0;
}

/* Memoize r under (a, b) (a miss's key: never present yet).  Returns r,
 * or -1 if r is an error or the table could not grow. */
static int64_t
op_put(Kernel *k, int op, uint32_t a, uint32_t b, int64_t r)
{
    if (r < 0)
        return -1;
    if ((k->ocount + 1) * 3 > SLOTS(k->oshift) * 2 && ops_resize(k) < 0)
        return -1;
    size_t mask = SLOTS(k->oshift) - 1;
    size_t h = slot_of(a, b, k->oshift);
    while (k->ops[h].a)
        h = (h + 1) & mask;
    k->ops[h] = (Entry){a, b, (uint32_t)r};
    k->ocount++;
    k->entries[op]++;
    return r;
}

#define KEY(op, u) ((uint32_t)(op) << 27 | (u))

/* -- fault probe -------------------------------------------------------- */

static int64_t
probe(Kernel *k, int64_t r)
{
    if (r < 0 || faults_dict == NULL)
        return r;
    PyObject *armed = PyDict_GetItemWithError(faults_dict, str_ARMED);
    if (armed != Py_True)
        return armed == NULL && PyErr_Occurred() ? -1 : r;
    PyObject *fire = PyDict_GetItemWithError(faults_dict, str_fire);
    if (fire == NULL)
        return PyErr_Occurred() ? -1 : r;
    PyObject *value = PyLong_FromLongLong(r);
    if (value == NULL)
        return -1;
    PyObject *out = PyObject_CallFunctionObjArgs(fire, str_probe, value, NULL);
    int same = out == NULL ? -1 : PyObject_RichCompareBool(out, value, Py_EQ);
    Py_DECREF(value);
    if (same != 0) {
        Py_XDECREF(out);
        return same < 0 ? -1 : r;
    }
    Py_XSETREF(k->corrupt, out);
    return CORRUPT;
}

/* -- recursive operations ----------------------------------------------- */

static int64_t
k_apply(Kernel *k, int op, uint32_t u, uint32_t v)
{
    if (op == OP_AND) {
        if (u == 0 || v == 0)
            return 0;
        if (u == 1)
            return v;
        if (v == 1)
            return u;
    }
    else {
        if (u == 1 || v == 1)
            return 1;
        if (u == 0)
            return v;
        if (v == 0)
            return u;
    }
    if (u == v)
        return u;
    if (u > v) {
        uint32_t t = u;
        u = v;
        v = t;
    }
    uint32_t a = KEY(op, u);
    int64_t r = op_get(k, a, v);
    if (r >= 0)
        return r;
    if (k->depth >= MAX_DEPTH)
        return too_deep();
    k->depth++;
    int32_t lu = k->var[u], lv = k->var[v];
    int32_t lvl = lu <= lv ? lu : lv;
    uint32_t ulo = u, uhi = u, vlo = v, vhi = v;
    if (lu <= lv) {
        ulo = k->lo[u];
        uhi = k->hi[u];
    }
    if (lv <= lu) {
        vlo = k->lo[v];
        vhi = k->hi[v];
    }
    int64_t lo = k_apply(k, op, ulo, vlo), hi = -1;
    if (lo >= 0)
        hi = k_apply(k, op, uhi, vhi);
    k->depth--;
    if (lo < 0)
        return child_failed(k, lo);
    if (hi < 0)
        return child_failed(k, hi);
    r = lo == hi ? lo : mk(k, lvl, (uint32_t)lo, (uint32_t)hi);
    return probe(k, op_put(k, op, a, v, r));
}

static int64_t
k_not(Kernel *k, uint32_t u)
{
    if (u <= 1)
        return !u;
    uint32_t a = KEY(OP_NOT, u);
    int64_t r = op_get(k, a, 0);
    if (r >= 0)
        return r;
    if (k->depth >= MAX_DEPTH)
        return too_deep();
    k->depth++;
    int64_t lo = k_not(k, k->lo[u]), hi = -1;
    if (lo >= 0)
        hi = k_not(k, k->hi[u]);
    k->depth--;
    if (lo < 0 || hi < 0)
        return -1;
    return op_put(k, OP_NOT, a, 0, mk(k, k->var[u], (uint32_t)lo, (uint32_t)hi));
}

static int64_t
k_restrict(Kernel *k, uint32_t u, int32_t level, int value)
{
    if (u <= 1)
        return u;
    uint32_t a = KEY(OP_RESTRICT, u), b = (uint32_t)level << 1 | (uint32_t)value;
    int64_t r = op_get(k, a, b);
    if (r >= 0)
        return r;
    int32_t lvl = k->var[u];
    if (lvl > level)
        r = u;
    else if (lvl == level)
        r = value ? k->hi[u] : k->lo[u];
    else {
        if (k->depth >= MAX_DEPTH)
            return too_deep();
        k->depth++;
        int64_t lo = k_restrict(k, k->lo[u], level, value), hi = -1;
        if (lo >= 0)
            hi = k_restrict(k, k->hi[u], level, value);
        k->depth--;
        if (lo < 0 || hi < 0)
            return -1;
        r = mk(k, lvl, (uint32_t)lo, (uint32_t)hi);
    }
    return op_put(k, OP_RESTRICT, a, b, r);
}

static int64_t
k_exists(Kernel *k, uint32_t u, uint32_t sid)
{
    if (u <= 1)
        return u;
    int32_t lvl = k->var[u];
    if (k->lsets[sid].max < lvl)
        return u; /* every quantified level lies above this node */
    uint32_t a = KEY(OP_EXISTS, u);
    int64_t r = op_get(k, a, sid);
    if (r >= 0)
        return r;
    if (k->depth >= MAX_DEPTH)
        return too_deep();
    k->depth++;
    int64_t lo = k_exists(k, k->lo[u], sid), hi = -1;
    if (lo >= 0)
        hi = k_exists(k, k->hi[u], sid);
    k->depth--;
    if (lo < 0 || hi < 0)
        return -1;
    if (k->lsets[sid].bits[lvl >> 6] >> (lvl & 63) & 1) {
        r = k_apply(k, OP_OR, (uint32_t)lo, (uint32_t)hi);
        if (r < 0)
            return child_failed(k, r);
    }
    else
        r = mk(k, lvl, (uint32_t)lo, (uint32_t)hi);
    return op_put(k, OP_EXISTS, a, sid, r);
}

/* -- argument conversion ------------------------------------------------ */

static int
nargs_ok(const char *name, Py_ssize_t nargs, Py_ssize_t want)
{
    if (nargs == want)
        return 1;
    PyErr_Format(PyExc_TypeError, "%s() takes %zd arguments (%zd given)",
                 name, want, nargs);
    return 0;
}

/* Every handle entering the kernel is checked against the node table. */
static int
handle(Kernel *k, PyObject *o, uint32_t *out)
{
    long long x = PyLong_AsLongLong(o);
    if (x == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (x >= 0 && x < k->n) {
        *out = (uint32_t)x;
        return 0;
    }
    PyErr_Format(PyExc_IndexError, "BDD node handle %R out of range", o);
    return -1;
}

static int
level_arg(PyObject *o, int32_t *out)
{
    long long x = PyLong_AsLongLong(o);
    if (x == -1 && PyErr_Occurred()) {
        if (!PyErr_ExceptionMatches(PyExc_OverflowError))
            return -1;
        PyErr_Clear();
    }
    else if (x >= 0 && x < MAX_LEVEL) {
        *out = (int32_t)x;
        return 0;
    }
    PyErr_Format(PyExc_ValueError, "BDD level %R outside packed range [0, %d)",
                 o, MAX_LEVEL);
    return -1;
}

static PyObject *
result(Kernel *k, int64_t r)
{
    if (r >= 0)
        return PyLong_FromLongLong(r);
    if (r == CORRUPT) {
        PyObject *o = k->corrupt;
        k->corrupt = NULL;
        return o;
    }
    return NULL;
}

/* The interned id of a level set (a hashable collection of levels). */
static Py_ssize_t
set_id(Kernel *k, PyObject *levels)
{
    PyObject *id = PyDict_GetItemWithError(k->sets, levels);
    if (id != NULL)
        return PyLong_AsSsize_t(id);
    if (PyErr_Occurred())
        return -1;
    LevelSet s = {NULL, -1};
    size_t words = 0;
    PyObject *it = PyObject_GetIter(levels), *item;
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        int32_t lvl;
        int bad = level_arg(item, &lvl);
        Py_DECREF(item);
        if (bad < 0)
            goto fail;
        size_t w = (size_t)lvl >> 6;
        if (w >= words) {
            if (grow((void **)&s.bits, w + 1, sizeof *s.bits) < 0)
                goto fail;
            memset(s.bits + words, 0, (w + 1 - words) * sizeof *s.bits);
            words = w + 1;
        }
        s.bits[w] |= (uint64_t)1 << (lvl & 63);
        if (lvl > s.max)
            s.max = lvl;
    }
    if (PyErr_Occurred())
        goto fail;
    Py_DECREF(it);
    it = NULL;
    if (grow((void **)&k->lsets, k->nsets + 1, sizeof *k->lsets) < 0)
        goto fail;
    id = PyLong_FromSsize_t(k->nsets);
    if (id == NULL || PyDict_SetItem(k->sets, levels, id) < 0) {
        Py_XDECREF(id);
        goto fail;
    }
    Py_DECREF(id);
    k->lsets[k->nsets] = s;
    return k->nsets++;
fail:
    Py_XDECREF(it);
    PyMem_Free(s.bits);
    return -1;
}

/* -- methods ------------------------------------------------------------ */

static PyObject *
binary(Kernel *k, int op, const char *name, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t u, v;
    if (!nargs_ok(name, nargs, 2) || handle(k, args[0], &u) < 0
        || handle(k, args[1], &v) < 0)
        return NULL;
    return result(k, k_apply(k, op, u, v));
}

static PyObject *
Kernel_apply_and(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    return binary(k, OP_AND, "apply_and", args, nargs);
}

static PyObject *
Kernel_apply_or(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    return binary(k, OP_OR, "apply_or", args, nargs);
}

static PyObject *
Kernel_apply_diff(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t u, v;
    if (!nargs_ok("apply_diff", nargs, 2) || handle(k, args[0], &u) < 0
        || handle(k, args[1], &v) < 0)
        return NULL;
    int64_t nv = k_not(k, v);
    if (nv < 0)
        return NULL;
    return result(k, k_apply(k, OP_AND, u, (uint32_t)nv));
}

static PyObject *
Kernel_apply_not(Kernel *k, PyObject *u_arg)
{
    uint32_t u;
    if (handle(k, u_arg, &u) < 0)
        return NULL;
    return result(k, k_not(k, u));
}

static PyObject *
Kernel_exists(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t u;
    if (!nargs_ok("exists", nargs, 2) || handle(k, args[0], &u) < 0)
        return NULL;
    int nonempty = PyObject_IsTrue(args[1]);
    if (nonempty < 0)
        return NULL;
    if (u <= 1 || !nonempty)
        return PyLong_FromUnsignedLong(u);
    Py_ssize_t sid = set_id(k, args[1]);
    if (sid < 0)
        return NULL;
    return result(k, k_exists(k, u, (uint32_t)sid));
}

static PyObject *
Kernel_restrict(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    uint32_t u;
    int32_t level;
    if (!nargs_ok("restrict", nargs, 3) || handle(k, args[0], &u) < 0
        || level_arg(args[1], &level) < 0)
        return NULL;
    int value = PyObject_IsTrue(args[2]);
    if (value < 0)
        return NULL;
    return result(k, k_restrict(k, u, level, value));
}

static PyObject *
Kernel_mk(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    int32_t level;
    uint32_t lo, hi;
    if (!nargs_ok("_mk", nargs, 3) || level_arg(args[0], &level) < 0
        || handle(k, args[1], &lo) < 0 || handle(k, args[2], &hi) < 0)
        return NULL;
    return result(k, mk(k, level, lo, hi));
}

static PyObject *
literal(Kernel *k, PyObject *level_obj, uint32_t lo, uint32_t hi)
{
    int32_t level;
    if (level_arg(level_obj, &level) < 0)
        return NULL;
    return result(k, mk(k, level, lo, hi));
}

static PyObject *
Kernel_var(Kernel *k, PyObject *level)
{
    return literal(k, level, 0, 1);
}

static PyObject *
Kernel_nvar(Kernel *k, PyObject *level)
{
    return literal(k, level, 1, 0);
}

static PyObject *
Kernel_level(Kernel *k, PyObject *u_arg)
{
    uint32_t u;
    if (handle(k, u_arg, &u) < 0)
        return NULL;
    return PyLong_FromLong(k->var[u]);
}

static PyObject *
Kernel_node(Kernel *k, PyObject *u_arg)
{
    uint32_t u;
    if (handle(k, u_arg, &u) < 0)
        return NULL;
    if (u <= 1)
        return Py_BuildValue("(iii)", -1, -1, -1);
    return Py_BuildValue("(iII)", k->var[u], k->lo[u], k->hi[u]);
}

static PyObject *
Kernel_pick_cube(Kernel *k, PyObject *u_arg)
{
    uint32_t u;
    if (handle(k, u_arg, &u) < 0)
        return NULL;
    if (u == 0)
        Py_RETURN_NONE;
    PyObject *cube = PyDict_New();
    while (cube != NULL && u > 1) {
        int high = k->hi[u] != 0;
        PyObject *level = PyLong_FromLong(k->var[u]);
        if (level == NULL || PyDict_SetItem(cube, level, high ? Py_True : Py_False) < 0)
            Py_CLEAR(cube);
        Py_XDECREF(level);
        u = high ? k->hi[u] : k->lo[u];
    }
    return cube;
}

static PyObject *
Kernel_size(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    return PyLong_FromUnsignedLong(k->n);
}

static PyObject *
Kernel_cache_stats(Kernel *k, PyObject *Py_UNUSED(ignored))
{
    PyObject *out = Py_BuildValue("{s:I,s:n,s:L,s:L}", "nodes", k->n,
                                  "cache_entries", (Py_ssize_t)k->ocount,
                                  "cache_hits", k->hits, "cache_misses", k->misses);
    for (int op = 0; out != NULL && op < N_OPS; op++) {
        PyObject *v = PyLong_FromLongLong(k->entries[op]);
        if (v == NULL || PyDict_SetItemString(out, OP_NAMES[op], v) < 0)
            Py_CLEAR(out);
        Py_XDECREF(v);
    }
    return out;
}

static PyMethodDef Kernel_methods[] = {
    {"apply_and", (PyCFunction)(void (*)(void))Kernel_apply_and, METH_FASTCALL, NULL},
    {"apply_or", (PyCFunction)(void (*)(void))Kernel_apply_or, METH_FASTCALL, NULL},
    {"apply_diff", (PyCFunction)(void (*)(void))Kernel_apply_diff, METH_FASTCALL,
     "u AND NOT v."},
    {"apply_not", (PyCFunction)Kernel_apply_not, METH_O, NULL},
    {"exists", (PyCFunction)(void (*)(void))Kernel_exists, METH_FASTCALL,
     "Existentially quantify the given levels out of u."},
    {"restrict", (PyCFunction)(void (*)(void))Kernel_restrict, METH_FASTCALL, NULL},
    {"_mk", (PyCFunction)(void (*)(void))Kernel_mk, METH_FASTCALL, NULL},
    {"var", (PyCFunction)Kernel_var, METH_O, "The BDD of \"bit at level is 1\"."},
    {"nvar", (PyCFunction)Kernel_nvar, METH_O, NULL},
    {"level", (PyCFunction)Kernel_level, METH_O, NULL},
    {"node", (PyCFunction)Kernel_node, METH_O, NULL},
    {"pick_cube", (PyCFunction)Kernel_pick_cube, METH_O,
     "One satisfying partial assignment (level -> bool), or None."},
    {"size", (PyCFunction)Kernel_size, METH_NOARGS, NULL},
    {"cache_stats", (PyCFunction)Kernel_cache_stats, METH_NOARGS,
     "Node and operation-cache counters (for solver statistics)."},
    {NULL, NULL, 0, NULL},
};

static PyMemberDef Kernel_members[] = {
    {"guard", T_OBJECT, offsetof(Kernel, guard), 0,
     "Optional ResourceGuard, told the node count every 256 allocations."},
    {NULL, 0, 0, 0, NULL},
};

/* -- type --------------------------------------------------------------- */

static PyObject *
Kernel_new(PyTypeObject *type, PyObject *args, PyObject *kwds)
{
    if (PyTuple_GET_SIZE(args) || (kwds != NULL && PyDict_GET_SIZE(kwds))) {
        PyErr_SetString(PyExc_TypeError, "a BDD manager takes no arguments");
        return NULL;
    }
    Kernel *k = (Kernel *)type->tp_alloc(type, 0);
    if (k == NULL)
        return NULL;
    k->cap = 1 << 12;
    k->ushift = 64 - 13;
    k->oshift = 64 - 13;
    k->var = PyMem_Malloc(k->cap * sizeof *k->var);
    k->lo = PyMem_Malloc(k->cap * sizeof *k->lo);
    k->hi = PyMem_Malloc(k->cap * sizeof *k->hi);
    k->uniq = PyMem_Calloc(SLOTS(k->ushift), sizeof *k->uniq);
    k->ops = PyMem_Calloc(SLOTS(k->oshift), sizeof *k->ops);
    k->sets = PyDict_New();
    if (!k->var || !k->lo || !k->hi || !k->uniq || !k->ops || !k->sets) {
        Py_DECREF(k);
        return PyErr_Occurred() ? NULL : PyErr_NoMemory();
    }
    /* Handles 0 and 1 are the terminals, at level -1. */
    for (int t = 0; t < 2; t++) {
        k->var[t] = -1;
        k->lo[t] = k->hi[t] = UINT32_MAX;
    }
    k->n = 2;
    return (PyObject *)k;
}

static int
Kernel_traverse(Kernel *k, visitproc visit, void *arg)
{
    Py_VISIT(k->guard);
    Py_VISIT(k->sets);
    Py_VISIT(k->corrupt);
    return 0;
}

static int
Kernel_clear(Kernel *k)
{
    Py_CLEAR(k->guard);
    Py_CLEAR(k->sets);
    Py_CLEAR(k->corrupt);
    return 0;
}

static void
Kernel_dealloc(Kernel *k)
{
    PyObject_GC_UnTrack(k);
    Kernel_clear(k);
    PyMem_Free(k->var);
    PyMem_Free(k->lo);
    PyMem_Free(k->hi);
    PyMem_Free(k->uniq);
    PyMem_Free(k->ops);
    for (Py_ssize_t i = 0; i < k->nsets; i++)
        PyMem_Free(k->lsets[i].bits);
    PyMem_Free(k->lsets);
    Py_TYPE(k)->tp_free((PyObject *)k);
}

static PyTypeObject KernelType = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "repro.bdd._kernel.Kernel",
    .tp_doc = "Node table, unique table and op cache of one BDD manager.",
    .tp_basicsize = sizeof(Kernel),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_BASETYPE | Py_TPFLAGS_HAVE_GC,
    .tp_new = Kernel_new,
    .tp_dealloc = (destructor)Kernel_dealloc,
    .tp_traverse = (traverseproc)Kernel_traverse,
    .tp_clear = (inquiry)Kernel_clear,
    .tp_methods = Kernel_methods,
    .tp_members = Kernel_members,
};

/* -- module ------------------------------------------------------------- */

static PyObject *
configure(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("configure", nargs, 2))
        return NULL;
    PyObject *dict = PyModule_GetDict(args[0]);
    if (dict == NULL)
        return NULL;
    Py_INCREF(dict);
    Py_XSETREF(faults_dict, dict);
    Py_INCREF(args[1]);
    Py_XSETREF(ceiling_error, args[1]);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"configure", (PyCFunction)(void (*)(void))configure, METH_FASTCALL,
     "configure(faults_module, MemoryCeilingExceeded): the Python hooks."},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef kernel_module = {
    PyModuleDef_HEAD_INIT,
    .m_name = "_kernel",
    .m_doc = "Native int-table BDD kernel.",
    .m_size = -1,
    .m_methods = module_methods,
};

PyMODINIT_FUNC
PyInit__kernel(void)
{
    if (PyType_Ready(&KernelType) < 0)
        return NULL;
    str_ARMED = PyUnicode_InternFromString("ARMED");
    str_fire = PyUnicode_InternFromString("fire");
    str_probe = PyUnicode_InternFromString("bdd.apply");
    str_note_nodes = PyUnicode_InternFromString("note_nodes");
    if (!str_ARMED || !str_fire || !str_probe || !str_note_nodes)
        return NULL;
    PyObject *m = PyModule_Create(&kernel_module);
    if (m == NULL)
        return NULL;
    Py_INCREF(&KernelType);
    if (PyModule_AddObject(m, "Kernel", (PyObject *)&KernelType) < 0) {
        Py_DECREF(&KernelType);
        Py_DECREF(m);
        return NULL;
    }
    return m;
}
