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
 *
 * Automata loops.  Four more methods run loops of repro.automata over a
 * TreeAutomaton's leaf list and delta dict (product_rows, refine_classes,
 * reachable_states, split_regions; DESIGN.md §12.8), calling k_apply
 * directly.  Each keeps its Python twin's order of states, keys and BDD
 * calls, so its results and every counter are the twin's.  They tick the
 * guard, raise StateBudgetExceeded (also handed over by configure()), and
 * turn a corrupted apply result into IndexError before it is stored.
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

/* -- automata loops ----------------------------------------------------- */

#define NONE UINT32_MAX

typedef struct {
    uint32_t *v;
    size_t n, cap;
} Vec;

static int
vec_reserve(Vec *a, size_t extra)
{
    if (a->n + extra <= a->cap)
        return 0;
    size_t cap = a->cap ? a->cap : 16;
    while (cap < a->n + extra)
        cap *= 2;
    if (grow((void **)&a->v, cap, sizeof *a->v) < 0)
        return -1;
    a->cap = cap;
    return 0;
}

static inline int
vec_push(Vec *a, uint32_t x)
{
    if (a->n == a->cap && vec_reserve(a, 1) < 0)
        return -1;
    a->v[a->n++] = x;
    return 0;
}

/* Open-addressed map from 64-bit keys (never UINT64_MAX) to 32-bit
 * values. */
typedef struct {
    uint64_t *keys;
    uint32_t *vals;
    size_t n;
    int shift;
} Map;

static inline size_t
map_slot(uint64_t key, int shift)
{
    return slot_of(key, key >> 32, shift);
}

static int
map_init(Map *m, int shift)
{
    m->keys = PyMem_Malloc(SLOTS(shift) * sizeof *m->keys);
    m->vals = PyMem_Malloc(SLOTS(shift) * sizeof *m->vals);
    m->n = 0;
    m->shift = shift;
    if (m->keys == NULL || m->vals == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    memset(m->keys, 0xff, SLOTS(shift) * sizeof *m->keys);
    return 0;
}

static void
map_free(Map *m)
{
    PyMem_Free(m->keys);
    PyMem_Free(m->vals);
}

static inline int64_t
map_get(const Map *m, uint64_t key)
{
    size_t mask = SLOTS(m->shift) - 1;
    for (size_t h = map_slot(key, m->shift); m->keys[h] != UINT64_MAX; h = (h + 1) & mask)
        if (m->keys[h] == key)
            return m->vals[h];
    return -1;
}

static void
map_insert(Map *m, uint64_t key, uint32_t val)
{
    size_t mask = SLOTS(m->shift) - 1, h = map_slot(key, m->shift);
    while (m->keys[h] != UINT64_MAX)
        h = (h + 1) & mask;
    m->keys[h] = key;
    m->vals[h] = val;
    m->n++;
}

/* Add a key that is not in the map yet. */
static int
map_put(Map *m, uint64_t key, uint32_t val)
{
    if ((m->n + 1) * 3 > SLOTS(m->shift) * 2) {
        Map t;
        if (map_init(&t, m->shift - 1) < 0) {
            map_free(&t);
            return -1;
        }
        for (size_t j = 0; j < SLOTS(m->shift); j++)
            if (m->keys[j] != UINT64_MAX)
                map_insert(&t, m->keys[j], m->vals[j]);
        map_free(m);
        *m = t;
    }
    map_insert(m, key, val);
    return 0;
}

/* Interned sequences of 32-bit words, numbered in first-occurrence
 * order: rows by content, row maps, signatures, destination sets. */
typedef struct {
    Vec data; /* the sequences back to back */
    Vec off;  /* sequence i is data[off[i] .. off[i + 1]) */
    Vec hash;
    uint32_t *slots; /* id + 1 per slot, 0 = empty */
    int shift;
} Pool;

#define POOL_COUNT(p) ((p)->off.n - 1)
#define POOL_SEQ(p, i) ((p)->data.v + (p)->off.v[i])
#define POOL_LEN(p, i) ((p)->off.v[(i) + 1] - (p)->off.v[i])

static int
pool_init(Pool *p)
{
    p->shift = 64 - 6;
    p->slots = PyMem_Calloc(SLOTS(p->shift), sizeof *p->slots);
    if (p->slots == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    return vec_push(&p->off, 0);
}

static void
pool_reset(Pool *p)
{
    p->data.n = p->hash.n = 0;
    p->off.n = 1;
    memset(p->slots, 0, SLOTS(p->shift) * sizeof *p->slots);
}

static void
pool_free(Pool *p)
{
    PyMem_Free(p->data.v);
    PyMem_Free(p->off.v);
    PyMem_Free(p->hash.v);
    PyMem_Free(p->slots);
}

static uint32_t
words_hash(const uint32_t *w, size_t n)
{
    uint64_t h = n * 0x9E3779B97F4A7C15ULL;
    for (size_t i = 0; i < n; i++) {
        h = (h ^ w[i]) * 0xC2B2AE3D27D4EB4FULL;
        h ^= h >> 29;
    }
    return (uint32_t)(h ^ h >> 32);
}

/* The id of the sequence appended to p->data since `start`: a new one,
 * or an earlier equal one (and the copy is dropped).  -1 on no memory. */
static int64_t
pool_intern(Pool *p, size_t start)
{
    size_t len = p->data.n - start, mask = SLOTS(p->shift) - 1;
    const uint32_t *w = p->data.v + start;
    uint32_t hash = words_hash(w, len), id;
    size_t h = slot_of(hash, 0, p->shift);
    while ((id = p->slots[h]) != 0) {
        id--;
        if (p->hash.v[id] == hash && POOL_LEN(p, id) == len
            && (len == 0 || !memcmp(POOL_SEQ(p, id), w, len * sizeof *w))) {
            p->data.n = start;
            return id;
        }
        h = (h + 1) & mask;
    }
    id = (uint32_t)POOL_COUNT(p);
    if (vec_push(&p->off, (uint32_t)p->data.n) < 0 || vec_push(&p->hash, hash) < 0)
        return -1;
    p->slots[h] = id + 1;
    if (POOL_COUNT(p) * 3 > SLOTS(p->shift) * 2) {
        int shift = p->shift - 1;
        uint32_t *t = PyMem_Calloc(SLOTS(shift), sizeof *t);
        if (t == NULL) {
            PyErr_NoMemory();
            return -1;
        }
        mask = SLOTS(shift) - 1;
        for (uint32_t i = 0; i < POOL_COUNT(p); i++) {
            h = slot_of(p->hash.v[i], 0, shift);
            while (t[h])
                h = (h + 1) & mask;
            t[h] = i + 1;
        }
        PyMem_Free(p->slots);
        p->slots = t;
        p->shift = shift;
    }
    return id;
}

/* -- reading automata --------------------------------------------------- */

/* An int in [0, limit): TypeError if o is no int, IndexError if out of
 * range. */
static int
bounded_int(PyObject *o, uint64_t limit, const char *what, uint32_t *out)
{
    if (!PyLong_Check(o)) {
        PyErr_Format(PyExc_TypeError, "%s must be an int, not %.100s", what,
                     Py_TYPE(o)->tp_name);
        return -1;
    }
    int overflow;
    long long x = PyLong_AsLongLongAndOverflow(o, &overflow);
    if (x == -1 && PyErr_Occurred())
        return -1;
    if (!overflow && x >= 0 && (uint64_t)x < limit) {
        *out = (uint32_t)x;
        return 0;
    }
    PyErr_Format(PyExc_IndexError, "%s %R out of range", what, o);
    return -1;
}

/* The items of a list or tuple (TypeError for anything else). */
static int
items_of(PyObject *seq, const char *what, PyObject *const **items, Py_ssize_t *n)
{
    if (!PyList_Check(seq) && !PyTuple_Check(seq)) {
        PyErr_Format(PyExc_TypeError, "%s must be a list, not %.100s", what,
                     Py_TYPE(seq)->tp_name);
        return -1;
    }
    *n = PySequence_Fast_GET_SIZE(seq);
    *items = PySequence_Fast_ITEMS(seq);
    return 0;
}

/* Append a transition list's (guard, state) pairs, states below n. */
static int
read_trans(Kernel *k, PyObject *row, uint32_t n, Vec *out)
{
    PyObject *const *items;
    Py_ssize_t len;
    if (items_of(row, "a transition row", &items, &len) < 0
        || vec_reserve(out, 2 * (size_t)len) < 0)
        return -1;
    for (Py_ssize_t i = 0; i < len; i++) {
        PyObject *e = items[i];
        if (!PyTuple_Check(e) || PyTuple_GET_SIZE(e) != 2) {
            PyErr_SetString(PyExc_TypeError, "a transition must be a (guard, state) pair");
            return -1;
        }
        uint32_t *w = out->v + out->n;
        if (bounded_int(PyTuple_GET_ITEM(e, 0), k->n, "BDD node handle", w) < 0
            || bounded_int(PyTuple_GET_ITEM(e, 1), n, "automaton state", w + 1) < 0)
            return -1;
        out->n += 2;
    }
    return 0;
}

typedef struct {
    uint32_t n;  /* states */
    Vec leaf;    /* (guard, state) pairs */
    Pool rows;   /* distinct rows in first-occurrence order: (guard, state) pairs */
    Vec keys;    /* (left, right, row) in delta order */
    Map at;      /* left << 32 | right -> row, when asked for */
} Auto;

static void
auto_free(Auto *a)
{
    PyMem_Free(a->leaf.v);
    pool_free(&a->rows);
    PyMem_Free(a->keys.v);
    map_free(&a->at);
}

static PyObject *str_n_states, *str_leaf, *str_delta, *str_accepting;

/* Copy a TreeAutomaton's states, leaf and delta.  Rows are numbered by
 * content (index_rows); each row object is read once. */
static int
read_auto(Kernel *k, PyObject *obj, int with_at, Auto *a)
{
    int rc = -1;
    Map seen = {0};
    PyObject *n = NULL, *leaf = NULL, *delta = NULL;
    if (pool_init(&a->rows) < 0 || map_init(&a->at, 64 - 6) < 0
        || map_init(&seen, 64 - 6) < 0)
        goto done;
    n = PyObject_GetAttr(obj, str_n_states);
    if (n == NULL || bounded_int(n, (uint64_t)1 << 31, "n_states", &a->n) < 0)
        goto done;
    leaf = PyObject_GetAttr(obj, str_leaf);
    if (leaf == NULL || read_trans(k, leaf, a->n, &a->leaf) < 0)
        goto done;
    delta = PyObject_GetAttr(obj, str_delta);
    if (delta == NULL)
        goto done;
    if (!PyDict_Check(delta)) {
        PyErr_SetString(PyExc_TypeError, "delta must be a dict");
        goto done;
    }
    Py_ssize_t pos = 0;
    PyObject *key, *row;
    while (PyDict_Next(delta, &pos, &key, &row)) {
        uint32_t ql, qr;
        if (!PyTuple_Check(key) || PyTuple_GET_SIZE(key) != 2) {
            PyErr_SetString(PyExc_TypeError, "a delta key must be a (left, right) state pair");
            goto done;
        }
        if (bounded_int(PyTuple_GET_ITEM(key, 0), a->n, "automaton state", &ql) < 0
            || bounded_int(PyTuple_GET_ITEM(key, 1), a->n, "automaton state", &qr) < 0)
            goto done;
        int64_t id = map_get(&seen, (uintptr_t)row);
        if (id < 0) {
            size_t start = a->rows.data.n;
            if (read_trans(k, row, a->n, &a->rows.data) < 0
                || (id = pool_intern(&a->rows, start)) < 0
                || map_put(&seen, (uintptr_t)row, (uint32_t)id) < 0)
                goto done;
        }
        if (vec_push(&a->keys, ql) < 0 || vec_push(&a->keys, qr) < 0
            || vec_push(&a->keys, (uint32_t)id) < 0
            || (with_at && map_put(&a->at, (uint64_t)ql << 32 | qr, (uint32_t)id) < 0))
            goto done;
    }
    rc = 0;
done:
    map_free(&seen);
    Py_XDECREF(n);
    Py_XDECREF(leaf);
    Py_XDECREF(delta);
    return rc;
}

/* Python calls a loop makes: guard.tick / guard.check_now. */
static PyObject *str_tick, *str_check_now, *str_product_phase, *budget_error;

static int
call_guard(PyObject *guard, PyObject *method, PyObject *phase, PyObject *n)
{
    if (guard == Py_None)
        return 0;
    PyObject *args[] = {guard, phase, n};
    PyObject *res = PyObject_VectorcallMethod(method, args, n == NULL ? 2 : 3, NULL);
    Py_XDECREF(res);
    return res == NULL ? -1 : 0;
}

/* k_apply for a loop: a corrupted result raises IndexError here. */
static inline int64_t
loop_apply(Kernel *k, int op, uint32_t u, uint32_t v)
{
    int64_t r = k_apply(k, op, u, v);
    return r < 0 ? child_failed(k, r) : r;
}

static PyObject *
pair_of(uint32_t a, uint32_t b)
{
    return Py_BuildValue("(II)", a, b);
}

/* -- product ------------------------------------------------------------ */

typedef struct {
    Auto a, b;
    Map index;     /* left << 32 | right -> product state */
    Vec pairs;     /* the two operand states of each product state */
    Vec frontier;
    Vec processed;
    long long budget;
    PyObject *max_states;
    Map products;  /* left row << 32 | right row -> product row */
    Pool out;      /* product rows: (guard, state) pairs */
    PyObject **lists; /* product row -> its shared list, once stored */
    size_t nlists;
    PyObject *leaf, *delta;
} Product;

static int64_t
state_budget_exceeded(Product *p)
{
    PyObject *exc = NULL, *kw = NULL;
    PyObject *msg = PyUnicode_FromFormat("product exceeded %S states", p->max_states);
    if (msg != NULL)
        kw = Py_BuildValue("{s:s,s:{s:n}}", "phase", "automata.product", "counters",
                           "states", (Py_ssize_t)p->index.n);
    if (kw != NULL) {
        PyObject *args[] = {msg};
        exc = PyObject_VectorcallDict(budget_error, args, 1, kw);
    }
    if (exc != NULL)
        PyErr_SetObject((PyObject *)Py_TYPE(exc), exc);
    Py_XDECREF(msg);
    Py_XDECREF(kw);
    Py_XDECREF(exc);
    return -1;
}

/* The number of product state (q1, q2), new ones pushed on the frontier. */
static int64_t
discover(Product *p, uint32_t q1, uint32_t q2)
{
    uint64_t key = (uint64_t)q1 << 32 | q2;
    int64_t idx = map_get(&p->index, key);
    if (idx >= 0)
        return idx;
    idx = (int64_t)p->index.n;
    if (idx >= p->budget)
        return state_budget_exceeded(p);
    if (map_put(&p->index, key, (uint32_t)idx) < 0 || vec_push(&p->pairs, q1) < 0
        || vec_push(&p->pairs, q2) < 0 || vec_push(&p->frontier, (uint32_t)idx) < 0)
        return -1;
    return idx;
}

static PyObject *
trans_list(const uint32_t *w, size_t len)
{
    PyObject *list = PyList_New((Py_ssize_t)(len / 2));
    for (size_t i = 0; list != NULL && i < len; i += 2) {
        PyObject *e = pair_of(w[i], w[i + 1]);
        if (e == NULL)
            Py_CLEAR(list);
        else
            PyList_SET_ITEM(list, (Py_ssize_t)(i / 2), e);
    }
    return list;
}

/* Store the row of child pair (pl, pr): each pair of operand rows is
 * multiplied once, and rows equal by content are one list. */
static int
expand(Kernel *k, Product *p, uint32_t pl, uint32_t pr)
{
    const uint32_t *pairs = p->pairs.v;
    int64_t i1 = map_get(&p->a.at, (uint64_t)pairs[2 * pl] << 32 | pairs[2 * pr]);
    if (i1 < 0)
        return 0;
    int64_t i2 = map_get(&p->b.at, (uint64_t)pairs[2 * pl + 1] << 32 | pairs[2 * pr + 1]);
    if (i2 < 0)
        return 0;
    uint64_t rows = (uint64_t)i1 << 32 | (uint64_t)i2;
    int64_t r = map_get(&p->products, rows);
    if (r < 0) {
        size_t start = p->out.data.n;
        Pool *ra = &p->a.rows, *rb = &p->b.rows;
        for (uint32_t x = p->a.rows.off.v[i1]; x < ra->off.v[i1 + 1]; x += 2)
            for (uint32_t y = rb->off.v[i2]; y < rb->off.v[i2 + 1]; y += 2) {
                int64_t g = loop_apply(k, OP_AND, ra->data.v[x], rb->data.v[y]);
                if (g < 0)
                    return -1;
                if (g == 0)
                    continue;
                int64_t q = discover(p, ra->data.v[x + 1], rb->data.v[y + 1]);
                if (q < 0 || vec_push(&p->out.data, (uint32_t)g) < 0
                    || vec_push(&p->out.data, (uint32_t)q) < 0)
                    return -1;
            }
        if ((r = pool_intern(&p->out, start)) < 0
            || map_put(&p->products, rows, (uint32_t)r) < 0)
            return -1;
    }
    if (POOL_LEN(&p->out, r) == 0)
        return 0;
    if ((size_t)r >= p->nlists) {
        size_t n = POOL_COUNT(&p->out);
        if (grow((void **)&p->lists, n, sizeof *p->lists) < 0)
            return -1;
        memset(p->lists + p->nlists, 0, (n - p->nlists) * sizeof *p->lists);
        p->nlists = n;
    }
    if (p->lists[r] == NULL
        && (p->lists[r] = trans_list(POOL_SEQ(&p->out, r), POOL_LEN(&p->out, r))) == NULL)
        return -1;
    PyObject *key = pair_of(pl, pr);
    int rc = key == NULL ? -1 : PyDict_SetItem(p->delta, key, p->lists[r]);
    Py_XDECREF(key);
    return rc;
}

static int
product_run(Kernel *k, Product *p, PyObject *guard)
{
    const Vec *la = &p->a.leaf, *lb = &p->b.leaf;
    for (size_t x = 0; x < la->n; x += 2)
        for (size_t y = 0; y < lb->n; y += 2) {
            int64_t g = loop_apply(k, OP_AND, la->v[x], lb->v[y]);
            if (g < 0)
                return -1;
            if (g == 0)
                continue;
            int64_t q = discover(p, la->v[x + 1], lb->v[y + 1]);
            PyObject *e = q < 0 ? NULL : pair_of((uint32_t)g, (uint32_t)q);
            int rc = e == NULL ? -1 : PyList_Append(p->leaf, e);
            Py_XDECREF(e);
            if (rc < 0)
                return -1;
        }
    /* Frontier LIFO; each popped pair expands against every processed
     * pair, itself included, as left child and then as right child. */
    while (p->frontier.n) {
        uint32_t t = p->frontier.v[--p->frontier.n];
        if (vec_push(&p->processed, t) < 0)
            return -1;
        if (guard != Py_None) {
            PyObject *n = PyLong_FromSize_t(p->processed.n);
            int rc = n == NULL ? -1 : call_guard(guard, str_tick, str_product_phase, n);
            Py_XDECREF(n);
            if (rc < 0)
                return -1;
        }
        for (size_t j = 0; j < p->processed.n; j++) {
            uint32_t peer = p->processed.v[j];
            if (expand(k, p, t, peer) < 0 || (peer != t && expand(k, p, peer, t) < 0))
                return -1;
        }
    }
    return 0;
}

static PyObject *
Kernel_product_rows(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("product_rows", nargs, 4))
        return NULL;
    Product p = {{0}};
    PyObject *out = NULL;
    p.max_states = args[2];
    p.budget = LLONG_MAX;
    if (p.max_states != Py_None) {
        int overflow;
        if (!PyLong_Check(p.max_states)) {
            PyErr_SetString(PyExc_TypeError, "max_states must be an int or None");
            return NULL;
        }
        p.budget = PyLong_AsLongLongAndOverflow(p.max_states, &overflow);
        if (overflow)
            p.budget = overflow > 0 ? LLONG_MAX : LLONG_MIN;
    }
    if (read_auto(k, args[0], 1, &p.a) < 0 || read_auto(k, args[1], 1, &p.b) < 0
        || map_init(&p.index, 64 - 8) < 0 || map_init(&p.products, 64 - 8) < 0
        || pool_init(&p.out) < 0 || (p.leaf = PyList_New(0)) == NULL
        || (p.delta = PyDict_New()) == NULL || product_run(k, &p, args[3]) < 0)
        goto done;
    PyObject *pairs = PyList_New((Py_ssize_t)p.index.n);
    for (size_t i = 0; pairs != NULL && i < p.index.n; i++) {
        PyObject *e = pair_of(p.pairs.v[2 * i], p.pairs.v[2 * i + 1]);
        if (e == NULL)
            Py_CLEAR(pairs);
        else
            PyList_SET_ITEM(pairs, (Py_ssize_t)i, e);
    }
    if (pairs != NULL)
        out = PyTuple_Pack(3, pairs, p.leaf, p.delta);
    Py_XDECREF(pairs);
done:
    auto_free(&p.a);
    auto_free(&p.b);
    map_free(&p.index);
    PyMem_Free(p.pairs.v);
    PyMem_Free(p.frontier.v);
    PyMem_Free(p.processed.v);
    map_free(&p.products);
    pool_free(&p.out);
    for (size_t i = 0; i < p.nlists; i++)
        Py_XDECREF(p.lists[i]);
    PyMem_Free(p.lists);
    Py_XDECREF(p.leaf);
    Py_XDECREF(p.delta);
    return out;
}

/* -- partition refinement ----------------------------------------------- */

static int
cmp_u32(const void *a, const void *b)
{
    uint32_t x = *(const uint32_t *)a, y = *(const uint32_t *)b;
    return (x > y) - (x < y);
}

static int
cmp_u64(const void *a, const void *b)
{
    uint64_t x = *(const uint64_t *)a, y = *(const uint64_t *)b;
    return (x > y) - (x < y);
}

typedef struct {
    Auto a;
    uint32_t *cls;       /* class of each state */
    uint32_t *next;      /* the next round's classes (a fill cursor in setup) */
    uint32_t *leaf_sig;  /* OR of each state's leaf guards, NONE without them */
    uint32_t *stamp, *merged; /* per class: last row seen, its OR-ed guard */
    uint32_t *canon;     /* the current round's map id of each row */
    uint32_t *adj_off;   /* state p's adjacency is adj[adj_off[p] .. adj_off[p + 1]) */
    uint32_t *lg_start, *lg_len;
    Vec lg;        /* leaf guards of each state, back to back */
    Vec adj;       /* (peer, row << 1 | right) per state */
    Vec touched;   /* the classes of one row, in entry order */
    uint64_t *sig; /* one state's (peer class, side, row map) items */
    size_t sig_cap;
    Pool maps, table; /* the round's row maps and state signatures */
} Refine;

static void
refine_free(Refine *r)
{
    auto_free(&r->a);
    void *blocks[] = {r->cls, r->next, r->leaf_sig, r->stamp, r->merged, r->canon,
                      r->adj_off, r->lg_start, r->lg_len, r->lg.v, r->adj.v,
                      r->touched.v, r->sig};
    for (size_t i = 0; i < sizeof blocks / sizeof *blocks; i++)
        PyMem_Free(blocks[i]);
    pool_free(&r->maps);
    pool_free(&r->table);
}

/* Per-state arrays, the accepting split and the adjacency: each key
 * (ql, qr) -> row i gives ql the item (qr, left, i) and qr (ql, right, i). */
static int
refine_setup(Kernel *k, Refine *r, PyObject *obj, PyObject *leaf_guards)
{
    uint32_t n = r->a.n;
    size_t words = (size_t)n + 1;
    uint32_t **arrays[] = {&r->cls, &r->next, &r->leaf_sig, &r->stamp, &r->merged,
                           &r->adj_off, &r->lg_start, &r->lg_len};
    for (size_t i = 0; i < sizeof arrays / sizeof *arrays; i++)
        if ((*arrays[i] = PyMem_Calloc(words, sizeof(uint32_t))) == NULL) {
            PyErr_NoMemory();
            return -1;
        }
    if ((r->canon = PyMem_Calloc(POOL_COUNT(&r->a.rows) + 1, sizeof *r->canon)) == NULL) {
        PyErr_NoMemory();
        return -1;
    }
    PyObject *acc = PyObject_GetAttr(obj, str_accepting);
    PyObject *it = acc == NULL ? NULL : PyObject_GetIter(acc), *item;
    Py_XDECREF(acc);
    if (it == NULL)
        return -1;
    while ((item = PyIter_Next(it)) != NULL) {
        int overflow;
        long long q = PyLong_Check(item) ? PyLong_AsLongLongAndOverflow(item, &overflow) : -1;
        Py_DECREF(item);
        if (q >= 0 && q < n)
            r->cls[q] = 1;
    }
    Py_DECREF(it);
    if (PyErr_Occurred())
        return -1;
    for (uint32_t p = 0; p < n; p++)
        r->leaf_sig[p] = NONE;
    if (leaf_guards != Py_None) {
        if (!PyDict_Check(leaf_guards)) {
            PyErr_SetString(PyExc_TypeError, "leaf_guards must be a dict or None");
            return -1;
        }
        Py_ssize_t pos = 0;
        PyObject *key, *guards;
        while (PyDict_Next(leaf_guards, &pos, &key, &guards)) {
            int overflow;
            long long p = PyLong_Check(key) ? PyLong_AsLongLongAndOverflow(key, &overflow) : -1;
            if (p < 0 || p >= n)
                continue;
            PyObject *const *items;
            Py_ssize_t len;
            if (items_of(guards, "leaf guards", &items, &len) < 0)
                return -1;
            r->lg_start[p] = (uint32_t)r->lg.n;
            r->lg_len[p] = (uint32_t)len;
            for (Py_ssize_t i = 0; i < len; i++) {
                uint32_t g;
                if (bounded_int(items[i], k->n, "BDD node handle", &g) < 0
                    || vec_push(&r->lg, g) < 0)
                    return -1;
            }
        }
    }
    const Vec *keys = &r->a.keys;
    for (size_t i = 0; i < keys->n; i += 3) {
        r->adj_off[keys->v[i] + 1]++;
        r->adj_off[keys->v[i + 1] + 1]++;
    }
    for (uint32_t p = 0; p < n; p++)
        r->adj_off[p + 1] += r->adj_off[p];
    if (vec_reserve(&r->adj, 2 * (size_t)r->adj_off[n]) < 0)
        return -1;
    r->adj.n = 2 * (size_t)r->adj_off[n];
    memcpy(r->next, r->adj_off, n * sizeof *r->next);
    for (size_t i = 0; i < keys->n; i += 3) {
        uint32_t ql = keys->v[i], qr = keys->v[i + 1], row = keys->v[i + 2];
        uint32_t *w = r->adj.v + 2 * (size_t)r->next[ql]++;
        w[0] = qr;
        w[1] = row << 1;
        w = r->adj.v + 2 * (size_t)r->next[qr]++;
        w[0] = ql;
        w[1] = row << 1 | 1;
    }
    return pool_init(&r->maps) < 0 || pool_init(&r->table) < 0 ? -1 : 0;
}

/* One round's class-level map of every row, numbered by first occurrence:
 * guards to one class are OR-ed in entry order, the map sorted by class. */
static int
refine_rows(Kernel *k, Refine *r, uint32_t *gen)
{
    Pool *rows = &r->a.rows;
    pool_reset(&r->maps);
    for (size_t i = 0; i < POOL_COUNT(rows); i++) {
        const uint32_t *w = POOL_SEQ(rows, i);
        uint32_t len = POOL_LEN(rows, i);
        ++*gen;
        r->touched.n = 0;
        for (uint32_t x = 0; x < len; x += 2) {
            uint32_t c = r->cls[w[x + 1]];
            if (r->stamp[c] != *gen) {
                r->stamp[c] = *gen;
                r->merged[c] = w[x];
                if (vec_push(&r->touched, c) < 0)
                    return -1;
                continue;
            }
            int64_t g = loop_apply(k, OP_OR, r->merged[c], w[x]);
            if (g < 0)
                return -1;
            r->merged[c] = (uint32_t)g;
        }
        qsort(r->touched.v, r->touched.n, sizeof *r->touched.v, cmp_u32);
        size_t start = r->maps.data.n;
        if (vec_reserve(&r->maps.data, 2 * r->touched.n) < 0)
            return -1;
        for (size_t j = 0; j < r->touched.n; j++) {
            uint32_t c = r->touched.v[j];
            r->maps.data.v[r->maps.data.n++] = c;
            r->maps.data.v[r->maps.data.n++] = r->merged[c];
        }
        int64_t id = pool_intern(&r->maps, start);
        if (id < 0)
            return -1;
        r->canon[i] = (uint32_t)id;
    }
    return 0;
}

/* Each state's new class: its class, leaf signature and the set of
 * (peer class, side, row map) over its adjacency, numbered by first state. */
static int
refine_states(Refine *r)
{
    uint32_t n = r->a.n;
    pool_reset(&r->table);
    for (uint32_t p = 0; p < n; p++) {
        size_t lo = r->adj_off[p], len = r->adj_off[p + 1] - lo;
        if (len > r->sig_cap) {
            if (grow((void **)&r->sig, len, sizeof *r->sig) < 0)
                return -1;
            r->sig_cap = len;
        }
        for (size_t j = 0; j < len; j++) {
            const uint32_t *w = r->adj.v + 2 * (lo + j);
            r->sig[j] = (uint64_t)(r->cls[w[0]] << 1 | (w[1] & 1)) << 32 | r->canon[w[1] >> 1];
        }
        qsort(r->sig, len, sizeof *r->sig, cmp_u64);
        size_t start = r->table.data.n;
        if (vec_reserve(&r->table.data, 2 + 2 * len) < 0)
            return -1;
        uint32_t *out = r->table.data.v + start;
        *out++ = r->cls[p];
        *out++ = r->leaf_sig[p];
        for (size_t j = 0; j < len; j++)
            if (j == 0 || r->sig[j] != r->sig[j - 1]) {
                *out++ = (uint32_t)(r->sig[j] >> 32);
                *out++ = (uint32_t)r->sig[j];
            }
        r->table.data.n = (size_t)(out - r->table.data.v);
        int64_t id = pool_intern(&r->table, start);
        if (id < 0)
            return -1;
        r->next[p] = (uint32_t)id;
    }
    return 0;
}

static PyObject *
Kernel_refine_classes(Kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (!nargs_ok("refine_classes", nargs, 5))
        return NULL;
    PyObject *leaf_guards = args[1], *guard = args[3], *phase = args[4], *out = NULL;
    long long max_rounds = LLONG_MAX;
    if (args[2] != Py_None) {
        int overflow;
        max_rounds = PyLong_AsLongLongAndOverflow(args[2], &overflow);
        if (max_rounds == -1 && PyErr_Occurred())
            return NULL;
        if (overflow)
            max_rounds = overflow > 0 ? LLONG_MAX : 0;
    }
    Refine r = {{0}};
    if (read_auto(k, args[0], 0, &r.a) < 0 || refine_setup(k, &r, args[0], leaf_guards) < 0)
        goto done;
    uint32_t n = r.a.n, gen = 0;
    for (long long rounds = 1; rounds <= max_rounds; rounds++) {
        if (call_guard(guard, str_check_now, phase, NULL) < 0 || refine_rows(k, &r, &gen) < 0)
            goto done;
        /* After the first row maps: node numbers follow op order. */
        if (leaf_guards != Py_None && rounds == 1)
            for (uint32_t p = 0; p < n; p++) {
                int64_t u = 0;
                for (uint32_t j = 0; j < r.lg_len[p] && u != 1; j++)
                    if ((u = loop_apply(k, OP_OR, (uint32_t)u, r.lg.v[r.lg_start[p] + j])) < 0)
                        goto done;
                r.leaf_sig[p] = (uint32_t)u;
            }
        if (refine_states(&r) < 0)
            goto done;
        int same = !memcmp(r.next, r.cls, n * sizeof *r.cls);
        uint32_t *t = r.cls;
        r.cls = r.next;
        r.next = t;
        if (same)
            break;
    }
    out = PyList_New(n);
    for (uint32_t p = 0; out != NULL && p < n; p++) {
        PyObject *c = PyLong_FromUnsignedLong(r.cls[p]);
        if (c == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, p, c);
    }
done:
    refine_free(&r);
    return out;
}

/* -- reachability ------------------------------------------------------- */

static PyObject *
Kernel_reachable_states(Kernel *k, PyObject *obj)
{
    Auto a = {0};
    uint8_t *reach = NULL;
    uint32_t *head = NULL, *next = NULL;
    Vec todo = {0};
    PyObject *out = NULL;
    if (read_auto(k, obj, 0, &a) < 0)
        goto done;
    size_t nkeys = a.keys.n / 3;
    reach = PyMem_Calloc(a.n + 1, 1);
    head = PyMem_Malloc((a.n + 1) * sizeof *head);
    next = PyMem_Malloc((nkeys + 1) * sizeof *next);
    if (reach == NULL || head == NULL || next == NULL) {
        PyErr_NoMemory();
        goto done;
    }
    memset(head, 0xff, (a.n + 1) * sizeof *head);
    for (size_t i = 0; i < a.leaf.n; i += 2)
        reach[a.leaf.v[i + 1]] = 1;
    /* A key whose child is not reached yet waits on it, and is looked at
     * again when the child arrives. */
    for (size_t first = 0; first < nkeys; first++) {
        if (vec_push(&todo, (uint32_t)first) < 0)
            goto done;
        while (todo.n) {
            uint32_t key = todo.v[--todo.n];
            const uint32_t *kv = a.keys.v + 3 * (size_t)key;
            uint32_t wait = !reach[kv[0]] ? kv[0] : !reach[kv[1]] ? kv[1] : NONE;
            if (wait != NONE) {
                next[key] = head[wait];
                head[wait] = key;
                continue;
            }
            const uint32_t *w = POOL_SEQ(&a.rows, kv[2]);
            for (uint32_t x = 0; x < POOL_LEN(&a.rows, kv[2]); x += 2) {
                uint32_t q = w[x + 1];
                if (reach[q])
                    continue;
                reach[q] = 1;
                for (uint32_t j = head[q]; j != NONE; j = next[j])
                    if (vec_push(&todo, j) < 0)
                        goto done;
                head[q] = NONE;
            }
        }
    }
    out = PySet_New(NULL);
    for (uint32_t q = 0; out != NULL && q < a.n; q++) {
        if (!reach[q])
            continue;
        PyObject *o = PyLong_FromUnsignedLong(q);
        if (o == NULL || PySet_Add(out, o) < 0)
            Py_CLEAR(out);
        Py_XDECREF(o);
    }
done:
    auto_free(&a);
    PyMem_Free(reach);
    PyMem_Free(head);
    PyMem_Free(next);
    PyMem_Free(todo.v);
    return out;
}

/* -- guard splitting ---------------------------------------------------- */

typedef struct {
    Vec pairs;       /* (guard, destination) */
    Vec parts, nxt;  /* (guard, destination set) */
    Pool sets;       /* sorted destination sets; 0 is the empty set */
    Map with;        /* set << 32 | destination -> set */
    Map slot;        /* set -> merged region */
    Vec merged;      /* (guard, set) per region, first occurrence order */
} Split;

/* The id of set s with destination d added. */
static int64_t
set_with(Split *sp, uint32_t s, uint32_t d)
{
    uint64_t key = (uint64_t)s << 32 | d;
    int64_t r = map_get(&sp->with, key);
    if (r >= 0)
        return r;
    Pool *p = &sp->sets;
    uint32_t len = POOL_LEN(p, s);
    size_t start = p->data.n;
    if (vec_reserve(&p->data, len + 1) < 0)
        return -1;
    const uint32_t *w = POOL_SEQ(p, s);
    uint32_t *out = p->data.v + start, i = 0;
    while (i < len && w[i] < d)
        *out++ = w[i++];
    if (i < len && w[i] == d)
        r = s;
    else {
        *out++ = d;
        while (i < len)
            *out++ = w[i++];
        p->data.n = (size_t)(out - p->data.v);
        r = pool_intern(p, start);
    }
    return r < 0 || map_put(&sp->with, key, (uint32_t)r) < 0 ? -1 : r;
}

static int
split_run(Kernel *k, Split *sp)
{
    if (vec_push(&sp->parts, 1) < 0 || vec_push(&sp->parts, 0) < 0)
        return -1;
    for (size_t i = 0; i < sp->pairs.n; i += 2) {
        uint32_t g = sp->pairs.v[i], d = sp->pairs.v[i + 1];
        sp->nxt.n = 0;
        for (size_t j = 0; j < sp->parts.n; j += 2) {
            uint32_t h = sp->parts.v[j], s = sp->parts.v[j + 1];
            int64_t both = loop_apply(k, OP_AND, h, g), with;
            if (both < 0)
                return -1;
            if (both != 0 && ((with = set_with(sp, s, d)) < 0
                              || vec_push(&sp->nxt, (uint32_t)both) < 0
                              || vec_push(&sp->nxt, (uint32_t)with) < 0))
                return -1;
            int64_t ng = k_not(k, g), rest;
            if (ng < 0 || (rest = loop_apply(k, OP_AND, h, (uint32_t)ng)) < 0)
                return -1;
            if (rest != 0 && (vec_push(&sp->nxt, (uint32_t)rest) < 0
                              || vec_push(&sp->nxt, s) < 0))
                return -1;
        }
        Vec t = sp->parts;
        sp->parts = sp->nxt;
        sp->nxt = t;
    }
    /* Merge regions with identical destination sets. */
    for (size_t j = 0; j < sp->parts.n; j += 2) {
        uint32_t h = sp->parts.v[j], s = sp->parts.v[j + 1];
        int64_t at = map_get(&sp->slot, s), g;
        if (at < 0) {
            if ((g = loop_apply(k, OP_OR, 0, h)) < 0
                || map_put(&sp->slot, s, (uint32_t)(sp->merged.n / 2)) < 0
                || vec_push(&sp->merged, (uint32_t)g) < 0 || vec_push(&sp->merged, s) < 0)
                return -1;
        }
        else {
            if ((g = loop_apply(k, OP_OR, sp->merged.v[2 * at], h)) < 0)
                return -1;
            sp->merged.v[2 * at] = (uint32_t)g;
        }
    }
    return 0;
}

static PyObject *
Kernel_split_regions(Kernel *k, PyObject *pairs)
{
    Split sp = {{0}};
    PyObject *out = NULL;
    PyObject *seq = PySequence_Fast(pairs, "guard pairs must be iterable");
    if (seq == NULL)
        return NULL;
    if (read_trans(k, seq, NONE, &sp.pairs) < 0 || pool_init(&sp.sets) < 0
        || pool_intern(&sp.sets, 0) < 0 || map_init(&sp.with, 64 - 6) < 0
        || map_init(&sp.slot, 64 - 6) < 0 || split_run(k, &sp) < 0)
        goto done;
    out = PyList_New((Py_ssize_t)(sp.merged.n / 2));
    for (size_t j = 0; out != NULL && j < sp.merged.n; j += 2) {
        uint32_t s = sp.merged.v[j + 1];
        PyObject *set = PyFrozenSet_New(NULL), *g = NULL, *e = NULL;
        for (uint32_t i = 0; set != NULL && i < POOL_LEN(&sp.sets, s); i++) {
            PyObject *d = PyLong_FromUnsignedLong(POOL_SEQ(&sp.sets, s)[i]);
            if (d == NULL || PySet_Add(set, d) < 0)
                Py_CLEAR(set);
            Py_XDECREF(d);
        }
        if (set != NULL && (g = PyLong_FromUnsignedLong(sp.merged.v[j])) != NULL)
            e = PyTuple_Pack(2, g, set);
        Py_XDECREF(set);
        Py_XDECREF(g);
        if (e == NULL)
            Py_CLEAR(out);
        else
            PyList_SET_ITEM(out, (Py_ssize_t)(j / 2), e);
    }
done:
    Py_DECREF(seq);
    PyMem_Free(sp.pairs.v);
    PyMem_Free(sp.parts.v);
    PyMem_Free(sp.nxt.v);
    pool_free(&sp.sets);
    map_free(&sp.with);
    map_free(&sp.slot);
    PyMem_Free(sp.merged.v);
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
    {"product_rows", (PyCFunction)(void (*)(void))Kernel_product_rows, METH_FASTCALL,
     "product_rows(a, b, max_states, guard): tta.product_rows, natively."},
    {"refine_classes", (PyCFunction)(void (*)(void))Kernel_refine_classes, METH_FASTCALL,
     "refine_classes(a, leaf_guards, max_rounds, guard, phase): "
     "minimize.refine_classes, natively."},
    {"reachable_states", (PyCFunction)Kernel_reachable_states, METH_O,
     "reachable_states(a): minimize.reachable_states, natively."},
    {"split_regions", (PyCFunction)Kernel_split_regions, METH_O,
     "split_regions(pairs): tta.split_regions, natively."},
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
    if (!nargs_ok("configure", nargs, 3))
        return NULL;
    PyObject *dict = PyModule_GetDict(args[0]);
    if (dict == NULL)
        return NULL;
    Py_INCREF(dict);
    Py_XSETREF(faults_dict, dict);
    Py_INCREF(args[1]);
    Py_XSETREF(ceiling_error, args[1]);
    Py_INCREF(args[2]);
    Py_XSETREF(budget_error, args[2]);
    Py_RETURN_NONE;
}

static PyMethodDef module_methods[] = {
    {"configure", (PyCFunction)(void (*)(void))configure, METH_FASTCALL,
     "configure(faults_module, MemoryCeilingExceeded, StateBudgetExceeded): "
     "the Python hooks."},
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
    str_tick = PyUnicode_InternFromString("tick");
    str_check_now = PyUnicode_InternFromString("check_now");
    str_product_phase = PyUnicode_InternFromString("automata.product");
    str_n_states = PyUnicode_InternFromString("n_states");
    str_leaf = PyUnicode_InternFromString("leaf");
    str_delta = PyUnicode_InternFromString("delta");
    str_accepting = PyUnicode_InternFromString("accepting");
    if (!str_ARMED || !str_fire || !str_probe || !str_note_nodes || !str_tick
        || !str_check_now || !str_product_phase || !str_n_states || !str_leaf
        || !str_delta || !str_accepting)
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
