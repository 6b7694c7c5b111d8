"""Optimizing pass pipeline over compiled Occam assembly.

The Occam compiler emits naive, pattern-regular CP-ISA assembly; this
module rewrites that assembly into tighter code through four
independently toggleable passes, run in a fixed order:

* ``fold`` — constant folding: constant binary/unary ops collapse to a
  single ``ldc`` (re-minimizing the PFIX/NFIX prefix chain, since the
  assembler re-encodes the folded literal minimally), constant
  conditions turn ``cj`` into ``j`` or delete the branch, constant
  spills to the compiler's global temp slots are forwarded to their
  reloads and dead spill stores are deleted.
* ``dce`` — dead-code elimination: CFG reachability from the entry
  block and every address-taken label (child process entries, PAR join
  continuations), dropping unreachable blocks — the blocks constant
  branch folding strands — plus jump-to-next elimination.
* ``realloc`` — workspace-slot reallocation: global ``TEMP_BASE``
  expression spills are rewritten to per-process workspace locals
  (``stl``/``ldl``), using the ``JOIN_STRIDE`` safety analysis from
  the PAR join layout to pick provably free slots.
* ``fuse`` — channel-op fusion: the five-instruction staged OUT
  sequence collapses to ``outword`` when the value is a leaf, saving
  the staging store/pointer dance per communication.

Soundness contract
------------------

The passes assume (and only claim correctness for) code with the
Occam compiler's discipline:

* at most two live evaluation-stack entries at any point, so ``Creg``
  never carries a meaningful value — rewrites are free to change it;
* expression code is straight-line (no labels or branches inside an
  expression), and every global temp slot is stored before it is
  loaded within one expression;
* out-of-bounds array subscripts that alias compiler-internal spill
  slots are undefined behaviour (the machine has no bounds checks);
* the final evaluation-stack registers and temp-slot memory are dead
  at every statement boundary — only variables, channel traffic, the
  error flag, and termination behaviour are observable program
  results.

Within that contract every pass preserves observable behaviour: same
channel rendezvous in the same order, same final variable values, same
error-flag state, same termination (the optimized program simply gets
there in fewer instructions and cycles).  The conformance harness
(:mod:`repro.testing.gen_occam`) enforces this differentially on every
fuzz case across both kernel tiers.
"""

import re

from repro.cp.assembler import assemble
from repro.occam.compiler import JOIN_STRIDE, TEMP_BASE

MIN_INT = -(1 << 31)
MAX_INT = (1 << 31) - 1

#: The compiler's global expression-spill slots (see TEMP_BASE in
#: :mod:`repro.occam.compiler`): 16 words is far above the deepest
#: spill the expression grammar can produce (depth ≤ 12 incl. the
#: prologue scratch slot).
TEMP_SLOTS = 16
TEMP_LIMIT = TEMP_BASE + 4 * TEMP_SLOTS

#: Workspace slots provably free in every workspace shape the compiler
#: creates.  A PAR join workspace is the tightest: ``join+0/+4`` hold
#: the successor/count words, ``stl 2``/``stl 3`` stage OUT values and
#: computed channel addresses, and the *next* join's below-wptr channel
#: parking words occupy the top four words of the 64-byte stride.
#: That leaves words 4..11 — eight slots — free everywhere (child and
#: top-level workspaces are 256 bytes apart, so they are looser).
REALLOC_SLOT_BASE = 4
REALLOC_SLOT_COUNT = 8
assert 4 * (REALLOC_SLOT_BASE + REALLOC_SLOT_COUNT) <= JOIN_STRIDE - 16

#: Instructions after which control does not fall through.
_NO_FALLTHROUGH = ("j", "terminate", "endp", "stopp", "ret", "gcall")

#: Instructions that can move control or switch processes: any cached
#: constant-spill knowledge dies here (another process may run, or we
#: re-enter from elsewhere).
_FLOW_BARRIERS = ("j", "cj", "call", "ret", "gcall", "in", "out",
                  "outword", "startp", "endp", "stopp", "runp",
                  "terminate")


class Ins:
    """One instruction: mnemonic plus operand (int, label name, or
    None for secondaries)."""

    __slots__ = ("mn", "arg")

    def __init__(self, mn, arg=None):
        self.mn = mn
        self.arg = arg

    def __repr__(self):
        return f"Ins({self.mn!r}, {self.arg!r})"

    def __eq__(self, other):
        return (isinstance(other, Ins) and other.mn == self.mn
                and other.arg == self.arg)


class Label:
    """A label definition."""

    __slots__ = ("name",)

    def __init__(self, name):
        self.name = name

    def __repr__(self):
        return f"Label({self.name!r})"

    def __eq__(self, other):
        return isinstance(other, Label) and other.name == self.name


_LABEL_RE = re.compile(r"^([A-Za-z_][A-Za-z0-9_]*):\s*(.*)$")


class OptimizeError(Exception):
    """The source is not in the shape the compiler emits."""


def parse(source: str):
    """Parse compiler-emitted assembly into a list of items."""
    items = []
    for raw in source.splitlines():
        line = raw.split(";", 1)[0].strip()
        if not line:
            continue
        match = _LABEL_RE.match(line)
        if match:
            items.append(Label(match.group(1)))
            line = match.group(2).strip()
            if not line:
                continue
        parts = line.split(None, 1)
        arg = None
        if len(parts) > 1:
            text = parts[1].strip()
            try:
                arg = int(text, 0)
            except ValueError:
                arg = text
        items.append(Ins(parts[0].lower(), arg))
    return items


def render(items) -> str:
    """Render items back to assembly source."""
    lines = []
    for item in items:
        if isinstance(item, Label):
            lines.append(f"{item.name}:")
        elif item.arg is None:
            lines.append(f"    {item.mn}")
        else:
            lines.append(f"    {item.mn} {item.arg}")
    return "\n".join(lines) + "\n"


def _count_instructions(items) -> int:
    return sum(1 for item in items if isinstance(item, Ins))


# -------------------------------------------------- constant arithmetic --


def _u(value: int) -> int:
    return value & 0xFFFFFFFF


def _s(value: int) -> int:
    value &= 0xFFFFFFFF
    return value - (1 << 32) if value >= (1 << 31) else value


def _checked(result: int):
    """Signed result, or None when the CPU would set the error flag
    (folding must preserve error semantics, so those stay unfolded)."""
    return result if MIN_INT <= result <= MAX_INT else None


def fold_binary(mn: str, b: int, a: int):
    """The constant result of ``b <mn> a`` exactly as the CPU computes
    it, or None when unfoldable (error-flag effects, unknown op)."""
    if mn == "add":
        return _checked(b + a)
    if mn == "sub":
        return _checked(b - a)
    if mn == "mul":
        return _checked(b * a)
    if mn == "diff":
        return _s(_u(b) - _u(a))
    if mn == "div":
        if a == 0 or (a == -1 and b == MIN_INT):
            return None  # error flag + zero result: keep the op
        return int(b / a)  # matches _sec_div's float truncation
    if mn == "rem":
        if a == 0:
            return None
        return b - int(b / a) * a
    if mn == "gt":
        return 1 if b > a else 0
    if mn == "and":
        return _s(_u(b) & _u(a))
    if mn == "or":
        return _s(_u(b) | _u(a))
    if mn == "xor":
        return _s(_u(b) ^ _u(a))
    if mn == "shl":
        return _s(_u(_u(b) << a)) if 0 <= a < 32 else 0
    if mn == "shr":
        return _s(_u(b) >> a) if 0 <= a < 32 else 0
    return None


def _const_of(item):
    """The constant an instruction pushes, or None."""
    if isinstance(item, Ins):
        if item.mn == "ldc" and isinstance(item.arg, int):
            return item.arg
        if item.mn == "mint":
            return MIN_INT
    return None


def _is(item, mn, arg=...):
    return (isinstance(item, Ins) and item.mn == mn
            and (arg is ... or item.arg == arg))


def _is_temp_addr(value) -> bool:
    return isinstance(value, int) and TEMP_BASE <= value < TEMP_LIMIT


# ------------------------------------------------------ pass 1: folding --


def _fold_window(items):
    """One peephole sweep; returns (items, changed)."""
    out = []
    changed = False
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        a = items[i + 1] if i + 1 < n else None
        b = items[i + 2] if i + 2 < n else None
        ca = _const_of(item)
        # ldc x; ldc y; binop  →  ldc result
        if ca is not None and a is not None and b is not None:
            cb = _const_of(a)
            if cb is not None and isinstance(b, Ins) and b.arg is None:
                result = fold_binary(b.mn, ca, cb)
                if result is not None:
                    out.append(Ins("ldc", result))
                    i += 3
                    changed = True
                    continue
        if ca is not None and a is not None and isinstance(a, Ins):
            # ldc x; eqc n / adc n / not  →  ldc result
            if a.mn == "eqc" and isinstance(a.arg, int):
                out.append(Ins("ldc", 1 if ca == a.arg else 0))
                i += 2
                changed = True
                continue
            if a.mn == "adc" and isinstance(a.arg, int):
                result = _checked(ca + a.arg)
                if result is not None:
                    out.append(Ins("ldc", result))
                    i += 2
                    changed = True
                    continue
            if a.mn == "not":
                out.append(Ins("ldc", _s(~_u(ca))))
                i += 2
                changed = True
                continue
            # Constant conditions: cj taken leaves a dead 0 in A (the
            # compiler's conditions are consumed by the branch), so a
            # false constant becomes an unconditional jump; a true
            # constant pops itself (cj not-taken pops A) so both
            # instructions vanish.
            if a.mn == "cj":
                if ca == 0:
                    out.append(Ins("j", a.arg))
                else:
                    pass  # never taken: drop ldc and cj entirely
                i += 2
                changed = True
                continue
        out.append(item)
        i += 1
    return out, changed


def _forward_spills(items):
    """Forward constant temp-slot spills to their reloads.

    Within a basic block, after ``ldc v; ldc T; stnl 0`` (a constant
    spill to global temp slot T), a later ``ldc T; ldnl 0`` reload is
    replaced by ``ldc v``.  Knowledge dies at labels and at any
    instruction that can transfer control or switch processes, and a
    store through a *computed* address (a runtime array subscript)
    kills every tracked slot — it could alias any of them.
    """
    out = []
    changed = False
    consts = {}
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if isinstance(item, Label):
            consts.clear()
            out.append(item)
            i += 1
            continue
        nxt = items[i + 1] if i + 1 < n else None
        if _is(item, "ldc") and isinstance(item.arg, int):
            if _is(nxt, "stnl", 0):
                if _is_temp_addr(item.arg):
                    value = _const_of(out[-1]) if out else None
                    if value is not None:
                        consts[item.arg] = value
                    else:
                        consts.pop(item.arg, None)
                else:
                    # Constant store elsewhere; only kills an aliasing
                    # tracked slot (exact address known).
                    consts.pop(item.arg, None)
                out.append(item)
                out.append(nxt)
                i += 2
                continue
            if _is(nxt, "ldnl", 0) and item.arg in consts:
                out.append(Ins("ldc", consts[item.arg]))
                i += 2
                changed = True
                continue
            out.append(item)
            i += 1
            continue
        if _is(item, "stnl") or _is(item, "ldnlp"):
            # Store through a computed address (or address arithmetic
            # that precedes one): could alias any temp slot.
            consts.clear()
        elif isinstance(item, Ins) and item.mn in _FLOW_BARRIERS:
            consts.clear()
        out.append(item)
        i += 1
    return out, changed


def _crossing_temps(items):
    """Temp addresses whose value flows between basic blocks.

    A temp loaded in some block before any store to it in that block
    receives its value from another block (only the prologue's
    channel-array init counter does this); such slots must keep their
    global homes and their stores.
    """
    crossing = set()
    stored = set()
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        if isinstance(item, Label):
            stored.clear()
            i += 1
            continue
        nxt = items[i + 1] if i + 1 < n else None
        if _is(item, "ldc") and _is_temp_addr(item.arg):
            if _is(nxt, "stnl", 0):
                stored.add(item.arg)
                i += 2
                continue
            if _is(nxt, "ldnl", 0):
                if item.arg not in stored:
                    crossing.add(item.arg)
                i += 2
                continue
        elif isinstance(item, Ins) and item.mn in _FLOW_BARRIERS:
            stored.clear()
        i += 1
    return crossing


def _delete_dead_spills(items):
    """Delete constant spills whose every reload was forwarded away.

    A spill ``ldc v; ldc T; stnl 0`` is dead when no reload of T
    remains before the next store to T in the same block (expression
    spills are strictly block-local store-before-load) — unless T is a
    block-crossing slot, or a computed load that could alias it
    survives in the window.
    """
    crossing = _crossing_temps(items)
    out = []
    changed = False
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        a = items[i + 1] if i + 1 < n else None
        b = items[i + 2] if i + 2 < n else None
        if (_const_of(item) is not None and _is(a, "ldc")
                and _is_temp_addr(a.arg) and _is(b, "stnl", 0)
                and a.arg not in crossing
                and _spill_is_dead(items, i + 3, a.arg)):
            i += 3
            changed = True
            continue
        out.append(item)
        i += 1
    return out, changed


def _spill_is_dead(items, start, temp):
    """True when no load of ``temp`` (direct or possibly-aliasing
    computed) occurs from ``start`` until the next store to it or the
    end of the block."""
    i = start
    n = len(items)
    while i < n:
        item = items[i]
        if isinstance(item, Label):
            return True
        nxt = items[i + 1] if i + 1 < n else None
        if _is(item, "ldc") and item.arg == temp:
            if _is(nxt, "stnl", 0):
                return True
            if _is(nxt, "ldnl", 0):
                return False
        elif _is(item, "ldnl") and not (_is(items[i - 1], "ldc")
                                        if i else False):
            return False  # computed load could alias the slot
        elif isinstance(item, Ins) and item.mn in _NO_FALLTHROUGH:
            return True
        i += 1
    return True


def fold_constants(items):
    """Constant folding + spill forwarding to a fixpoint."""
    while True:
        items, c1 = _fold_window(items)
        items, c2 = _forward_spills(items)
        items, c3 = _delete_dead_spills(items)
        if not (c1 or c2 or c3):
            return items


# ---------------------------------------------------------- pass 2: DCE --


def _split_blocks(items):
    """Split into basic blocks; returns (blocks, label_block) where
    each block is a list of items and label_block maps label → block
    index."""
    blocks = []
    label_block = {}
    current = []

    def flush():
        if current:
            blocks.append(list(current))
            current.clear()

    for item in items:
        if isinstance(item, Label):
            if any(isinstance(x, Ins) for x in current):
                flush()
            current.append(item)
            label_block[item.name] = len(blocks)
        else:
            current.append(item)
            if item.mn in _NO_FALLTHROUGH or item.mn in ("cj", "call"):
                flush()
    flush()
    return blocks, label_block


def eliminate_dead_code(items):
    """Drop blocks unreachable from the entry, then jumps-to-next.

    Reachability follows branch targets, fallthrough, and — crucially
    for the Occam compiler's output — *address-taken* labels: a
    ``ldc child_k`` or ``ldc parend_k`` in a reachable block makes the
    child process entry / join continuation reachable, even though no
    branch instruction names it.
    """
    blocks, label_block = _split_blocks(items)
    if not blocks:
        return items
    reachable = set()
    work = [0]
    while work:
        index = work.pop()
        if index in reachable or index >= len(blocks):
            continue
        reachable.add(index)
        block = blocks[index]
        falls = True
        for item in block:
            if not isinstance(item, Ins):
                continue
            if isinstance(item.arg, str) and item.arg in label_block:
                work.append(label_block[item.arg])
            if item.mn in _NO_FALLTHROUGH:
                falls = False
        if falls and index + 1 < len(blocks):
            work.append(index + 1)
    out = []
    for index, block in enumerate(blocks):
        if index in reachable:
            out.extend(block)
    # Jump-to-next elimination: a j whose target label immediately
    # follows it (possibly through other labels) is a no-op branch.
    cleaned = []
    for i, item in enumerate(out):
        if _is(item, "j") and isinstance(item.arg, str):
            j = i + 1
            skip = False
            while j < len(out) and isinstance(out[j], Label):
                if out[j].name == item.arg:
                    skip = True
                    break
                j += 1
            if skip:
                continue
        cleaned.append(item)
    return cleaned


# ---------------------------------------- pass 3: workspace reallocation --


def reallocate_workspace(items):
    """Rewrite global temp-slot spills to workspace locals.

    Every temp slot whose accesses are all same-block store-before-load
    pairs (i.e. not block-crossing) is remapped to one of the eight
    provably free workspace words (slots 4..11 — see the JOIN_STRIDE
    analysis at the top of this module):

    * ``ldc T; stnl 0``  →  ``stl s``   (4 bytes → 1, 2 instrs → 1)
    * ``ldc T; ldnl 0``  →  ``ldl s``

    Workspace locals are per-process, which is *stronger* isolation
    than the shared global slots (safe today only because expression
    evaluation cannot be preempted); slots beyond the eight free words
    keep their global homes.
    """
    crossing = _crossing_temps(items)
    used = []
    for item, nxt in zip(items, items[1:]):
        if (_is(item, "ldc") and _is_temp_addr(item.arg)
                and item.arg not in crossing
                and (_is(nxt, "stnl", 0) or _is(nxt, "ldnl", 0))
                and item.arg not in used):
            used.append(item.arg)
    slot_of = {
        temp: REALLOC_SLOT_BASE + index
        for index, temp in enumerate(sorted(used)[:REALLOC_SLOT_COUNT])
    }
    if not slot_of:
        return items
    out = []
    i = 0
    n = len(items)
    while i < n:
        item = items[i]
        nxt = items[i + 1] if i + 1 < n else None
        if _is(item, "ldc") and item.arg in slot_of:
            if _is(nxt, "stnl", 0):
                out.append(Ins("stl", slot_of[item.arg]))
                i += 2
                continue
            if _is(nxt, "ldnl", 0):
                out.append(Ins("ldl", slot_of[item.arg]))
                i += 2
                continue
        out.append(item)
        i += 1
    return out


# ------------------------------------------------- pass 4: channel fusion --


def _leaf_producer(items, end):
    """The start index of a one-value leaf producer ending at ``end``
    (inclusive), or None.  Leaves: ``ldc k`` (constant), ``ldl s``
    (reallocated local), ``ldc addr; ldnl 0`` (variable load) — each
    adds at most one stack entry above the fused channel address."""
    item = items[end]
    if _is(item, "ldc") and isinstance(item.arg, int):
        return end
    if _is(item, "ldl"):
        return end
    if (_is(item, "ldnl", 0) and end > 0
            and _is(items[end - 1], "ldc")
            and isinstance(items[end - 1].arg, int)):
        return end - 1
    return None


_CHILD_LABEL = re.compile(r"^child_\d+$")
_JOIN_LABEL = re.compile(r"^parend_\d+$")


def _fusable_regions(items):
    """Index ranges (start, end) where ``wptr+0`` is provably dead.

    ``outword`` stages its value at ``wptr+0``, so fusion is only
    sound where word 0 of the *executing process's* workspace is dead.
    ENDP is the one instruction the compiler emits that retargets
    wptr — the last branch to finish a PAR continues *at the join
    workspace* — and a join's word 0 holds the live continuation
    address from PAR setup until that ENDP consumes it.  With a PAR
    inside a loop, the loop body re-enters its own setup sitting on
    the join it just finished, so any code downstream of a ``parend``
    continuation label can run with ``wptr+0`` live.

    A process region (program entry, or a ``child_k`` body — children
    are always started on a fresh dedicated workspace whose word 0
    nothing touches) that contains **no** ``parend`` label keeps its
    entry wptr for its whole lifetime, so its word 0 stays dead and
    every OUT in it may fuse.
    """
    regions = []
    start = 0
    for index, item in enumerate(items):
        if isinstance(item, Label) and _CHILD_LABEL.match(item.name):
            regions.append((start, index))
            start = index
    regions.append((start, len(items)))
    return [
        (lo, hi) for lo, hi in regions
        if not any(isinstance(items[k], Label)
                   and _JOIN_LABEL.match(items[k].name)
                   for k in range(lo, hi))
    ]


def fuse_channel_ops(items):
    """Fuse staged OUT sequences into ``outword``.

    The compiler's OUT protocol stages the value in workspace slot 2::

        <value>; stl 2; ldlp 2; <chan>; ldc 4; out

    When the value is a leaf (one stack entry), this becomes::

        <chan>; <value>; outword

    ``outword`` stages the word at ``wptr+0`` instead, which is only
    dead in process regions whose wptr provably never moves off its
    entry workspace — see :func:`_fusable_regions`.  ``<chan>`` is
    ``ldc addr`` for scalar channels or ``ldl 3`` for staged
    channel-array addresses.  Saves three instructions and the staging
    memory round-trip per communication.
    """
    fusable = _fusable_regions(items)
    out = []
    i = 0
    n = len(items)
    while i < n:
        if not any(lo <= i < hi for lo, hi in fusable):
            out.append(items[i])
            i += 1
            continue
        # Match ... P(leaf) stl2 ldlp2 CH ldc4 out  anchored at `out`.
        if (i + 4 < n and _is(items[i + 4], "out")
                and _is(items[i + 3], "ldc", 4)
                and (_is(items[i + 2], "ldc")
                     and isinstance(items[i + 2].arg, int)
                     or _is(items[i + 2], "ldl", 3))
                and _is(items[i + 1], "ldlp", 2)
                and _is(items[i], "stl", 2)):
            start = _leaf_producer(out, len(out) - 1) if out else None
            if start is not None:
                producer = out[start:]
                del out[start:]
                out.append(items[i + 2])      # channel address
                out.extend(producer)          # the word
                out.append(Ins("outword"))
                i += 5
                continue
        out.append(items[i])
        i += 1
    return out


# -------------------------------------------------------------- pipeline --


PASSES = {
    "fold": fold_constants,
    "dce": eliminate_dead_code,
    "realloc": reallocate_workspace,
    "fuse": fuse_channel_ops,
}

#: Pass order is fixed: folding first (it creates the dead branches
#: and constant spills the later passes consume), DCE second, then
#: slot reallocation, then fusion (which benefits from folded leaf
#: values and reallocated locals).
PASS_ORDER = ("fold", "dce", "realloc", "fuse")

OPT_LEVELS = {
    0: (),
    1: ("fold", "dce"),
    2: PASS_ORDER,
}


def run_passes(items, passes):
    """Run the named passes in canonical order; returns
    (items, per-pass report)."""
    unknown = set(passes) - set(PASSES)
    if unknown:
        raise OptimizeError(
            f"unknown passes: {', '.join(sorted(unknown))}")
    report = {}
    for name in PASS_ORDER:
        if name not in passes:
            continue
        before = _count_instructions(items)
        items = PASSES[name](items)
        report[name] = {
            "instructions_before": before,
            "instructions_after": _count_instructions(items),
        }
    return items, report


def optimize(source: str, level: int = 2, passes=None):
    """Optimize compiler-emitted assembly source.

    ``level`` selects a canonical pass set (see ``OPT_LEVELS``);
    ``passes`` overrides it with an explicit collection of pass names.
    Returns ``(optimized_source, report)`` where the report carries
    per-pass instruction counts plus whole-program byte sizes (the
    assembler re-minimizes every prefix chain when re-encoding, so the
    byte delta includes the prefix re-minimization win).
    """
    if passes is None:
        try:
            passes = OPT_LEVELS[level]
        except KeyError:
            raise OptimizeError(f"unknown optimization level {level!r}")
    items = parse(source)
    bytes_before = len(assemble(source).code)
    instructions_before = _count_instructions(items)
    items, report = run_passes(items, set(passes))
    optimized = render(items)
    report = {
        "passes": report,
        "instructions_before": instructions_before,
        "instructions_after": _count_instructions(items),
        "bytes_before": bytes_before,
        "bytes_after": len(assemble(optimized).code),
    }
    return optimized, report
