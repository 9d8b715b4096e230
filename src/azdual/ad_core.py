"""The duality algorithm on signed symmetric multisegments.

Each step extracts a chain of copies with strictly descending ends from the
canonical descending enumeration, emits an initial piece (a dual pair, or a
single centered segment when the chain hits a terminal form), and shortens
the chain copies and their dual copies.  Iterating per line until nothing is
left computes the dual; conjugating by the data transfer computes the dual
of parameter data.

The step loop runs on the int line form of :mod:`langdata`, one line at a
time, in one generator (``_steps``) whose frame locals hold the line's state
across its steps: the counter ``{(2b, 2e): multiplicity}``, changed in
place; an end index ``{2e: sorted beginnings 2b}``, updated only for the
pairs a step takes to or from multiplicity 0; the centered pairs present;
the set of centered pairs signed -1; the sign parity.  It runs one step per
iteration and yields the chain, its sign eps0 and the minus set after the
step.  It starts from a copy of the line's counter in the input's int form,
and the dual it adds up is the result's int form; no ``Segment`` is built.

One step path, the body of ``_steps``, serves every line class, which
chooses only the chain (and on good lines the cuts and signs).  A step
visits only the ends top, top - 2, ...  On good lines it picks at each end
the first group of the labeled section after the previous pick, skipping a
centered copy whose sign repeats the previous centered one's, and keeps the
signs; on bad lines it picks the largest beginning below the previous one,
where a copy joins beside its own dual only when it has a second copy.  The
checks are local to the entries a step touched: the degree the cut copies
lose must equal the emitted piece's degree, and the sign parity before the
step must equal the piece's plus that of the new minus set, summed while
the set is built.  A mirror line is the GL transpose of its primary side
(0), mirrored onto the partner side (1): its chains come from the chain
walk of :mod:`mw_gl` over the side-0 copies, which refills a list with each
chain's copies, and the step cuts each chain copy and its mirror copy as on
a bad line.
"""
from __future__ import annotations

from bisect import bisect_left, insort
from collections import deque
from dataclasses import dataclass

from .segments import GOOD, GRID_INT, UGLY, DomainError, InvariantError, Line, _typed
from .mw_gl import _buckets, _chains
from .langdata import (
    LabeledSeg,
    LanglandsData,
    SignedSymMultisegment,
    _dual,
    _fill,
    _labeled_dual,
    _parity,
    _section,
    _segment,
    _sides,
    _signed,
    require_valid,
    transfer,
    untransfer,
    validate,
)


@dataclass(frozen=True)
class InitialSequence:
    """The chain extracted by one step, with its positions and outcome sign.

    ``enumeration`` lists the line's copies: labeled on good lines, in the
    order of the labeled section; plain elsewhere, by descending beginning,
    then ascending end, then side, so that on mirror lines the two sides
    interleave, unlike ``str``, which lists side 0 first.  ``segments`` are
    the picked entries in chain order; ``idx`` / ``idx_dual`` the 0-based
    positions of the picked copies and of their dual copies inside
    ``enumeration``; ``eps0`` is -1 exactly when the chain stopped on a
    terminal form.
    """

    line: Line
    enumeration: tuple
    segments: tuple
    idx: tuple
    idx_dual: tuple
    eps0: int


# ---------------------------------------------------------------------------
# The per-line step loop
# ---------------------------------------------------------------------------


def _steps(ln: Line, cnt, minus, dual, dual_minus):
    """The extraction steps of one line, one per iteration: each cuts
    ``cnt`` in place, adds its piece to ``dual`` and ``dual_minus``, and
    yields ``(chain, eps0, minus)``, ``minus`` being the centered pairs
    signed -1 after the step.  It stops when ``cnt`` is empty.

    The line's state lives in the generator's locals: ``ends`` maps each end
    2e to the sorted beginnings 2b of the pairs ending there, ``centered``
    holds the centered pairs present (good lines only) and ``parity`` is that
    of the sign product (0 for +1).  The cut keeps ``ends`` and ``centered``
    in place, for the pairs a step takes to or from multiplicity 0, and the
    degree lost is counted from the cut bits; on a good line the signs are
    then rebuilt from the centered pairs the chain cuts left.  A mirror line
    has no ``ends``: ``chains`` walks its GL chains over buckets of its
    side-0 copies and refills ``copies`` with each chain's copies.  ``side``
    and ``dual_side`` are the key suffixes of a piece's pair and of its dual:
    (0,) and (1,) on a mirror line, else empty.

    The line class chooses the chain and, on good lines, the cut plan and
    the sign carry; the piece is [-e1, e1] on a terminal chain, else [el, e1]
    and its dual (the chain's ends)."""
    good = ln.cls == GOOD
    same_type = ln.grid == GRID_INT
    if ln.cls == UGLY:
        ends = centered = None
        copies = []
        chains = _chains(_buckets(_sides(ln, cnt).get((0,), {})), copies)
        side, dual_side = (0,), (1,)
    else:
        # One beginning per distinct pair: this loop over the keys takes
        # about half the time of mw_gl._buckets on a C8 counter.
        ends = {}
        for b2, e2 in cnt:
            ends.setdefault(e2, []).append(b2)
        for lst in ends.values():
            lst.sort()
        centered = {v for v in cnt if v[0] + v[1] == 0} if good else None
        side = dual_side = ()
    parity = _parity(cnt, minus)
    while cnt:
        if good:
            # The chain: one copy per end, top end first, each the first group
            # after the one before in the section; consecutive centered copies
            # must carry opposite signs.  eps0 is -1 exactly when the chain
            # stops on a terminal form.  At end e the section runs through the
            # beginnings downward: the copies labeled +1 (beginning above -e),
            # the groups of the centered pair (-e, e) labeled +1, 0 and -1 that
            # its multiplicity has, and the copies labeled -1.  A bisection
            # skips the copies that come before the previous pick, of beginning
            # pb and label plab.  Of the centered groups, +1 comes after it only
            # when plab is +1 and pb > -e, 0 when plab is not -1, and -1 always
            # (after a -1 pick the bisection keeps only beginnings below pb).
            # The top end starts as if after a +1 pick beginning above every
            # copy; psign is the minus flag of a centered pick.
            chain = []
            e = max(ends)
            pb, plab, psign, eps0 = e + 2, 1, None, 1
            bucket = ends.get(e)
            while bucket:
                c = -e
                # After a pick labeled +1: the +1 copies below its beginning,
                # then everything from the centered pair down; after label 0:
                # from the centered pair down; after -1: below its beginning.
                i = bisect_left(bucket, pb if plab < 0 or plab and pb > c else c + 1)
                while i:
                    i -= 1
                    b2 = bucket[i]
                    if b2 != c:
                        lab = 1 if b2 > c else -1
                        break
                    if psign is not None and ((c, e) in minus) == psign:
                        continue
                    k = cnt[(c, e)]
                    if k > 1 and plab > 0 and pb > c:
                        lab = 1
                    elif k % 2 and plab >= 0:
                        lab = 0
                    elif k > 1:
                        lab = -1
                    else:
                        continue
                    break
                else:
                    break
                pair = (b2, e)
                chain.append((pair, lab))
                if e < 2:  # a terminal form ends at 0 or 1/2
                    if same_type:
                        terminal = pair == (0, 0) and lab >= 0
                    else:
                        terminal = pair == (1, 1) or (
                            pair == (-1, 1) and lab >= 0 and pair in minus
                        )
                    if terminal:
                        eps0 = -1
                        break
                pb, plab, psign = b2, lab, (pair in minus if b2 == c else None)
                e -= 2
                bucket = ends.get(e)
            first, (last, last_lab) = chain[0][0], chain[-1]
            e1, el = first[1], last[1]
            if eps0 == 1 and e1 + el == 0:
                raise InvariantError("open chain produced a centered initial pair")
            before = set(centered)
            if (last == (0, 0) and last_lab == 1) or last == (1, 1):
                for j, (pair, _) in enumerate(chain):
                    if pair != (e1 - 2 * j, e1 - 2 * j):
                        raise InvariantError("chain into the corner is not a staircase")
            # The first copy of each chain group loses its end (bit 1), the
            # first copy of each dual group its beginning (bit 2), the chain
            # copies first.  A copy is cut once when it is its own dual (a
            # centered group labeled 0 or +1) or the dual of another chain
            # copy; the dual of a centered group labeled -1 is the one labeled
            # +1.  The chain copy at index j ends at e1 - 2j, so the dual of
            # (2b, 2e) can sit in the chain only at index (e1 + 2b) / 2.  A
            # copy of more than one point cut at both ends loses 2, every other
            # cut copy 1.
            n = len(chain)
            cuts, duals = [], []
            lost = 0
            for pair, lab in chain:
                b2, e2 = pair
                if b2 + e2 == 0:
                    if lab < 0:
                        cuts.append((pair, 1))
                        duals.append((pair, 2))
                    else:
                        cuts.append((pair, 3))
                        lost += b2 != e2
                    continue
                dj = (-e2, -b2)
                j = (e1 + b2) // 2
                if 0 <= j < n and chain[j][0] == dj:
                    cuts.append((pair, 3))
                    lost += b2 != e2
                elif cnt.get(dj):
                    cuts.append((pair, 1))
                    duals.append((dj, 2))
                else:
                    raise InvariantError(
                        f"dual copy (2b, 2e, label) = {(dj, -lab)} missing from the section"
                    )
            cuts += duals
        else:
            if ends is None:
                if next(chains, None) is None:
                    raise InvariantError("ugly step with an empty primary side")
                chain = [v + (0,) for v in copies]
                cuts = [(v, 1) for v in chain]
                cuts += [((-e2, -b2, 1), 2) for b2, e2 in copies]
            else:
                chain = _bad_chain(ends, cnt)
                cuts = [(v, 1) for v in chain]
                cuts += [((-e2, -b2), 2) for b2, e2 in chain]
            e1, el, eps0, lost = chain[0][1], chain[-1][1], 1, 0
        if eps0 == -1:
            # The terminal piece's sign, n0 being the centered copies before
            # the step: (-1)^n0 on a half-integral line, (-1)^(n0 + 1) times
            # the sign of [0,0] on an integral one.
            n0 = sum(map(cnt.__getitem__, before))
            minus_piece = n0 % 2 != (same_type and (0, 0) not in minus)
            piece, piece_degree = [(-e1, e1)], e1 + 1
        else:
            minus_piece = False
            piece, piece_degree = [(el, e1) + side, (-e1, -el) + dual_side], e1 - el + 2

        # The cut: take out one copy of each cut pair, then put each back with
        # its end (bit 1) and its beginning (bit 2) cut off.  The end index
        # follows the pairs that reach or leave multiplicity 0; a mirror line
        # has none, its chain walk cuts its own buckets.
        lost += len(cuts)
        for pair, bits in cuts:
            k = cnt.get(pair, 0)
            if k > 1:
                cnt[pair] = k - 1
            elif k:
                del cnt[pair]
                if ends is not None:
                    b2, e2 = pair
                    lst = ends[e2]
                    if len(lst) == 1:
                        del ends[e2]
                    else:
                        del lst[bisect_left(lst, b2)]
                    if good and b2 + e2 == 0:
                        centered.discard(pair)
            elif ends is None:
                raise InvariantError("mirror copies missing on the partner side")
            else:
                raise InvariantError("chain consumed more copies than available")
        # The degree the cut copies lost, against the piece's own degree.
        if lost != piece_degree:
            raise InvariantError("degree not preserved across the step")
        # On a good line, the centered pairs the chain cuts (bit 1) left,
        # each with the copy it came from.
        source = {}
        if ends is None:
            for (b2, e2, sd), bits in cuts:
                b2 += bits & 2
                e2 -= 2 * (bits & 1)
                if b2 <= e2:
                    t = (b2, e2, sd)
                    cnt[t] = cnt.get(t, 0) + 1
        else:
            for pair, bits in cuts:
                b2 = pair[0] + (bits & 2)
                e2 = pair[1] - 2 * (bits & 1)
                if b2 > e2:
                    continue
                t = (b2, e2)
                k = cnt.get(t, 0)
                cnt[t] = k + 1
                if not k:
                    lst = ends.get(e2)
                    if lst is None:
                        ends[e2] = [b2]
                    else:
                        insort(lst, b2)
                if good and b2 + e2 == 0:
                    if not k:
                        centered.add(t)
                    if bits & 1:
                        if t in source:
                            raise InvariantError(
                                f"two chain copies collapsed onto centered (2b, 2e) = {t}"
                            )
                        source[t] = pair
        if good:
            # A centered copy cut out of a chain copy takes its sign from that
            # copy; every other centered value keeps its sign times eps0.  The
            # parity of the new minus set is summed as the set is built, and
            # with the piece's it must give the parity before.
            new_minus = set()
            new_parity = 0
            for v in centered:
                dj = source.get(v)
                if dj is None:
                    if v not in before:
                        raise InvariantError(
                            f"centered (2b, 2e) = {v} appeared without a chain source"
                        )
                    s = -eps0 if v in minus else eps0
                elif dj[0] + dj[1] == 0:
                    s = -eps0 if dj in minus else eps0
                elif dj[0] + dj[1] == 2:
                    s = (eps0 if v in minus else -eps0) if v in before else eps0
                else:
                    raise InvariantError(
                        f"chain copy with center {dj[0] + dj[1]}/2 became centered"
                    )
                if s == -1:
                    new_minus.add(v)
                    new_parity += cnt[v]
            if parity != (minus_piece + new_parity) % 2:
                raise InvariantError("sign product not preserved across the step")
            minus, parity = new_minus, new_parity % 2
        for v in piece:
            dual[v] = dual.get(v, 0) + 1
        if minus_piece:
            dual_minus.add(piece[0])
        if lost <= 0:
            raise InvariantError("degree failed to decrease across a step")
        yield chain, eps0, minus


def _bad_chain(ends, cnt):
    """Top end first, the largest beginning below the one before at each
    end.  A value joins beside its own dual only when it has a second
    copy."""
    chain = []
    picked = set()
    target = max(ends)
    prev_b = None
    while target in ends:
        bucket = ends[target]
        top = len(bucket) if prev_b is None else bisect_left(bucket, prev_b)
        for i in range(top - 1, -1, -1):
            v = (bucket[i], target)
            if cnt[v] > 1 or (-target, -v[0]) not in picked:
                break
        else:
            break
        chain.append(v)
        picked.add(v)
        prev_b = v[0]
        target -= 2
    return chain


# ---------------------------------------------------------------------------
# Public operations
# ---------------------------------------------------------------------------


def _single_line(s: SignedSymMultisegment, what: str):
    """The line of a single-line input, its counter and its minus set."""
    require_valid(_typed(s, SignedSymMultisegment))
    if not s:
        raise DomainError(f"{what} on the zero multisegment")
    lines = s.lines()
    if len(lines) != 1:
        raise DomainError("this operation needs data supported on exactly one line")
    ln = lines[0]
    return (ln, *s._ints[ln])


def ad_step(s: SignedSymMultisegment):
    """One extraction step on a single-line signed symmetric multisegment.
    Returns (initial part, remaining part) as signed symmetric multisegments."""
    ln, cnt, minus = _single_line(s, "ad_step")
    rest, dual, dual_minus = dict(cnt), {}, set()
    _, _, minus = next(_steps(ln, rest, minus, dual, dual_minus))
    return _signed([(ln, dual, dual_minus)]), _signed([(ln, rest, minus)])


def ad_initial_sequence(s: SignedSymMultisegment) -> InitialSequence:
    """The chain data of the first step on a single-line input."""
    ln, cnt, minus = _single_line(s, "ad_initial_sequence")
    chain, eps0, _ = next(_steps(ln, dict(cnt), minus, {}, set()))
    good = ln.cls == GOOD
    if good:
        enum = [(pair, lab) for _, pair, lab, k in _section(cnt) for _ in range(k)]
        picks = [*chain, *(_labeled_dual(*entry) for entry in chain)]
        segs = tuple(LabeledSeg(_segment(ln, pair), lab) for pair, lab in enum)
    else:
        enum = sorted((v for v, k in cnt.items() for _ in range(k)),
                      key=lambda v: (-v[0],) + v[1:])
        picks = [*chain, *map(_dual, chain)]
        segs = tuple(_segment(ln, v) for v in enum)
    # Equal values are adjacent in enum.  On good lines a pick names its
    # group's first copy; elsewhere a value may be picked twice (by the chain
    # and as a dual), and each pick takes the next copy.
    free, pos = {}, []
    for p, v in enumerate(enum):
        free.setdefault(v, p)
    for v in picks:
        pos.append(free[v])
        if not good:
            free[v] += 1
    idx, idx_dual = tuple(pos[:len(chain)]), tuple(pos[len(chain):])
    return InitialSequence(ln, segs, tuple(segs[p] for p in idx), idx, idx_dual, eps0)


def ad_symm(s: SignedSymMultisegment) -> SignedSymMultisegment:
    """The dual of a signed symmetric multisegment (an involution)."""
    require_valid(_typed(s, SignedSymMultisegment))
    ints = {}
    for ln in s.lines():
        cnt, minus = s._ints[ln]
        dual, dual_minus = ints[ln] = {}, set()
        deque(_steps(ln, dict(cnt), minus, dual, dual_minus), maxlen=0)
    result = _fill(object.__new__(SignedSymMultisegment), ints)
    report = validate(result)
    if report:
        raise InvariantError("dual left the symmetric class:\n  " + "\n  ".join(report))
    return result


def ad_data(d: LanglandsData) -> LanglandsData:
    """The dual of parameter data, via transfer conjugation."""
    return untransfer(ad_symm(transfer(d)))
