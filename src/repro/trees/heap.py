"""Binary tree heaps with explicit nil leaves.

Retreet programs (and the MSO tree models that abstract them) operate on
finite binary trees in which *every* internal node has exactly two children
and the frontier consists of explicit ``nil`` nodes.  This mirrors the paper's
WS2S constraint ``isNil(v) -> isNil(left(v)) && isNil(right(v))`` while
keeping every model finite and printable.

A :class:`TreeNode` is either *internal* (carries integer fields and two
children) or *nil* (no fields, no children).  :class:`Tree` wraps a root node
and provides addressing, traversal, cloning and comparison utilities used by
the interpreter, the bounded checker and the MSO witness decoder.

Every traversal here is **iterative** and node paths are computed lazily
from parent pointers: a depth-100k chain can be built, cloned, executed and
serialized under ``sys.setrecursionlimit(256)``, and nothing pays the
O(n * depth) cost of materializing every path string unless a caller
actually asks for the full path index.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TreeNode", "Tree", "nil", "node", "tree_from_tuple", "tree_to_tuple"]


class TreeNode:
    """A node of a binary tree heap.

    Internal nodes own a mutable mapping of integer-valued local fields and
    two children (which may be nil nodes).  Nil nodes are terminal: reading a
    field of nil or taking its children is a :class:`NilAccessError`.

    Nodes carry a ``parent`` pointer (maintained by the constructor,
    :meth:`Tree.reindex` and the tree builders) from which ``path`` — the
    ``l``/``r`` string addressing the node from its root — is derived
    lazily and cached.
    """

    __slots__ = ("left", "right", "fields", "_nil", "parent", "_path")

    def __init__(
        self,
        left: Optional["TreeNode"] = None,
        right: Optional["TreeNode"] = None,
        fields: Optional[Dict[str, int]] = None,
        *,
        is_nil: bool = False,
    ) -> None:
        self._nil = is_nil
        self.parent: Optional["TreeNode"] = None
        self._path: Optional[str] = None
        if is_nil:
            if left is not None or right is not None or fields:
                raise ValueError("nil nodes carry no children or fields")
            self.left = None
            self.right = None
            self.fields: Dict[str, int] = {}
        else:
            self.left = left if left is not None else TreeNode(is_nil=True)
            self.right = right if right is not None else TreeNode(is_nil=True)
            self.fields = dict(fields or {})
            self.left.parent = self
            self.right.parent = self

    # -- structure ---------------------------------------------------------
    @property
    def is_nil(self) -> bool:
        return self._nil

    @property
    def path(self) -> str:
        """Path from the root ("" is the root, "lr" is root.left.right).

        Computed lazily by walking parent pointers up to the nearest
        ancestor with a cached path, then cached on every node walked.
        """
        if self._path is not None:
            return self._path
        chain: List["TreeNode"] = []
        n: "TreeNode" = self
        while n._path is None and n.parent is not None:
            chain.append(n)
            n = n.parent
        base = n._path or ""
        if n._path is None:  # detached root acts as ""
            n._path = base
        for m in reversed(chain):
            par = m.parent
            base = base + ("l" if par.left is m else "r")  # type: ignore[union-attr]
            m._path = base
        return base

    @path.setter
    def path(self, value: str) -> None:
        self._path = value

    def child(self, direction: str) -> "TreeNode":
        """Return the child in ``direction`` ('l' or 'r')."""
        if self._nil:
            raise NilAccessError(f"child({direction!r}) of nil node {self.path!r}")
        if direction == "l":
            return self.left  # type: ignore[return-value]
        if direction == "r":
            return self.right  # type: ignore[return-value]
        raise ValueError(f"bad direction {direction!r}")

    # -- fields ------------------------------------------------------------
    def get(self, name: str) -> int:
        if self._nil:
            raise NilAccessError(f"read of field {name!r} on nil node {self.path!r}")
        return self.fields.get(name, 0)

    def set(self, name: str, value: int) -> None:
        if self._nil:
            raise NilAccessError(f"write of field {name!r} on nil node {self.path!r}")
        self.fields[name] = int(value)

    # -- misc ---------------------------------------------------------------
    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if self._nil:
            return f"<nil {self.path!r}>"
        return f"<node {self.path!r} {self.fields}>"


def _copy_node(src: TreeNode, parent: Optional[TreeNode]) -> TreeNode:
    """A copy of ``src``'s fields and nil-ness under ``parent``; the
    caller links its children."""
    n = TreeNode.__new__(TreeNode)
    n._nil = src._nil
    n.parent = parent
    n._path = None
    n.left = n.right = None
    n.fields = dict(src.fields)
    return n


class NilAccessError(RuntimeError):
    """Raised when a program dereferences a nil node.

    Retreet assumes null-dereference freedom; the interpreter raises this to
    surface violations during testing rather than silently misbehaving.
    """


def nil() -> TreeNode:
    """Construct a fresh nil leaf."""
    return TreeNode(is_nil=True)


def node(
    left: Optional[TreeNode] = None,
    right: Optional[TreeNode] = None,
    **fields: int,
) -> TreeNode:
    """Construct an internal node; missing children default to nil."""
    return TreeNode(left, right, fields)


@dataclass
class Tree:
    """A rooted binary tree heap with path indexing.

    Paths are strings over ``{'l','r'}``; the empty string addresses the
    root.  Indexing covers nil leaves too, so MSO witnesses (which label nil
    positions — e.g. the paper labels ``C_c0``/``C_c1`` on nil nodes in
    Fig. 4b) can be decoded onto concrete nodes.

    The path index is built lazily on first :meth:`node_at` /
    ``in``-containment lookup; paths themselves come lazily from parent
    pointers, so deep trees never pay for paths they don't use.
    """

    root: TreeNode
    _by_path: Optional[Dict[str, TreeNode]] = field(default=None, repr=False)
    #: Internal-node count, kept by :meth:`clone` (which counts as it
    #: copies) until the next :meth:`reindex`.
    _size: Optional[int] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.reindex()

    # -- indexing ------------------------------------------------------------
    def reindex(self) -> None:
        """Relink parent pointers and drop cached paths after structural
        edits; the path index is rebuilt lazily on the next lookup."""
        self._by_path = self._size = None
        root = self.root
        root.parent = None
        root._path = ""
        stack: List[TreeNode] = [root]
        while stack:
            n = stack.pop()
            if n.is_nil:
                continue
            l, r = n.left, n.right
            l.parent = n  # type: ignore[union-attr]
            l._path = None  # type: ignore[union-attr]
            r.parent = n  # type: ignore[union-attr]
            r._path = None  # type: ignore[union-attr]
            stack.append(r)  # type: ignore[arg-type]
            stack.append(l)  # type: ignore[arg-type]

    def _index(self) -> Dict[str, TreeNode]:
        if self._by_path is None:
            self._by_path = {n.path: n for n in self.nodes(include_nil=True)}
        return self._by_path

    def node_at(self, path: str) -> TreeNode:
        try:
            return self._index()[path]
        except KeyError:
            raise KeyError(f"no node at path {path!r}") from None

    def __contains__(self, path: str) -> bool:
        return path in self._index()

    # -- traversal -----------------------------------------------------------
    def nodes(self, include_nil: bool = False) -> Iterator[TreeNode]:
        """Yield nodes in preorder (root, left subtree, right subtree)."""
        stack = [self.root]
        while stack:
            n = stack.pop()
            if n.is_nil:
                if include_nil:
                    yield n
                continue
            yield n
            stack.append(n.right)  # type: ignore[arg-type]
            stack.append(n.left)  # type: ignore[arg-type]

    def paths(self, include_nil: bool = False) -> List[str]:
        return sorted(
            (n.path for n in self.nodes(include_nil)), key=lambda p: (len(p), p)
        )

    # -- measurements ----------------------------------------------------------
    @property
    def size(self) -> int:
        """Number of internal (non-nil) nodes."""
        if self._size is not None:
            return self._size
        return sum(1 for _ in self.nodes())

    @property
    def height(self) -> int:
        """Height counted in internal nodes (empty tree has height 0)."""
        best = 0
        stack: List[Tuple[TreeNode, int]] = [(self.root, 0)]
        while stack:
            n, d = stack.pop()
            if n.is_nil:
                if d > best:
                    best = d
                continue
            stack.append((n.left, d + 1))  # type: ignore[arg-type]
            stack.append((n.right, d + 1))  # type: ignore[arg-type]
        return best

    # -- copying / comparing ---------------------------------------------------
    def clone(self) -> "Tree":
        """Deep copy (the interpreter mutates fields in place), made in one
        pass: parent links and real nil leaves are built as nodes are
        copied, so no ``reindex`` walk follows.  The copy keeps the count
        of nodes it copied, so its :attr:`size` walks nothing."""
        root = _copy_node(self.root, None)
        root._path = ""
        stack: List[Tuple[TreeNode, TreeNode]] = [(self.root, root)]
        size = 0
        while stack:
            o, c = stack.pop()
            if o._nil:
                continue
            size += 1
            c.left = _copy_node(o.left, c)  # type: ignore[arg-type]
            c.right = _copy_node(o.right, c)  # type: ignore[arg-type]
            stack.append((o.right, c.right))  # type: ignore[arg-type]
            stack.append((o.left, c.left))  # type: ignore[arg-type]
        out = Tree.__new__(Tree)
        out.root, out._by_path, out._size = root, None, size
        return out

    def same_shape(self, other: "Tree") -> bool:
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.is_nil != b.is_nil:
                return False
            if a.is_nil:
                continue
            stack.append((a.left, b.left))  # type: ignore[arg-type]
            stack.append((a.right, b.right))  # type: ignore[arg-type]
        return True

    def fields_equal(self, other: "Tree", fields: Optional[List[str]] = None) -> bool:
        """Shape equality plus per-node field equality.

        When ``fields`` is given only those fields are compared (used to
        ignore scratch fields introduced by program rewrites).
        """
        if not self.same_shape(other):
            return False
        stack = [(self.root, other.root)]
        while stack:
            a, b = stack.pop()
            if a.is_nil:
                continue
            keys = set(a.fields) | set(b.fields) if fields is None else set(fields)
            for k in keys:
                if a.get(k) != b.get(k):
                    return False
            stack.append((a.left, b.left))  # type: ignore[arg-type]
            stack.append((a.right, b.right))  # type: ignore[arg-type]
        return True

    def map_fields(self, fn: Callable[[TreeNode], None]) -> "Tree":
        """Apply ``fn`` to every internal node in place; returns self."""
        for n in self.nodes():
            fn(n)
        return self

    # -- rendering ---------------------------------------------------------------
    def render(self, fields: Optional[List[str]] = None) -> str:
        """ASCII rendering, one node per line, indented by depth."""
        lines: List[str] = []
        stack: List[Tuple[TreeNode, int, str]] = [(self.root, 0, "")]
        while stack:
            n, depth, tag = stack.pop()
            pad = "  " * depth
            if n.is_nil:
                lines.append(f"{pad}{tag}nil")
                continue
            shown = (
                {k: n.fields[k] for k in fields if k in n.fields}
                if fields is not None
                else n.fields
            )
            lines.append(f"{pad}{tag}node{shown}")
            stack.append((n.right, depth + 1, "r: "))  # type: ignore[arg-type]
            stack.append((n.left, depth + 1, "l: "))  # type: ignore[arg-type]
        return "\n".join(lines)


def tree_to_tuple(t: Tree) -> object:
    """Serialize a tree to nested tuples ``(fields, left, right)`` / None."""
    root = t.root
    if root.is_nil:
        return None
    out: Dict[int, object] = {}
    stack: List[Tuple[TreeNode, bool]] = [(root, False)]
    while stack:
        n, done = stack.pop()
        if n.is_nil:
            out[id(n)] = None
            continue
        if done:
            out[id(n)] = (
                tuple(sorted(n.fields.items())),
                out[id(n.left)],
                out[id(n.right)],
            )
        else:
            stack.append((n, True))
            stack.append((n.right, False))  # type: ignore[arg-type]
            stack.append((n.left, False))  # type: ignore[arg-type]
    return out[id(root)]


def tree_from_tuple(obj: object) -> Tree:
    """Inverse of :func:`tree_to_tuple`."""
    if obj is None:
        return Tree(nil())
    flds, _, _ = obj  # type: ignore[misc]
    root = TreeNode(fields=dict(flds))
    stack: List[Tuple[TreeNode, object]] = [(root, obj)]
    while stack:
        c, o = stack.pop()
        _, lo, ro = o  # type: ignore[misc]
        if lo is not None:
            cl = TreeNode(fields=dict(lo[0]))  # type: ignore[index]
            c.left = cl
            cl.parent = c
            stack.append((cl, lo))
        if ro is not None:
            cr = TreeNode(fields=dict(ro[0]))  # type: ignore[index]
            c.right = cr
            cr.parent = c
            stack.append((cr, ro))
    return Tree(root)
