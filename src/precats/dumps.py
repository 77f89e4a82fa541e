"""Canonical dumps read back as tables of position lists, checked in full,
from their text or file a block and a member at a time, with no JSON tree.
Loaded by the first ``presheaf.precat_from_dump``.

A canonical dump lists the actions of each level pair (a run) together, in
the order ``theta.enumerate_morphisms`` gives the pair's morphisms, and its
levels, ``n`` and window after them.  Actions are read in two phases.  As
the text is read, the actions held are split at their map texts by one
pattern and cut between maps at ``_CUT`` by ``str.partition``; each map and
tail is decoded the first time it is met, and a components text is only
checked, never decoded (``_Parts``).  Once the levels are read, a run whose
components texts equal its pair's morphisms' texts, in one comparison,
takes each form by its place; any other run (reordered, listed twice, or
cut by an action decoded in full) is decoded and looked up an action at a
time.  An action that fails a check of the first phase, and every action
of a dict, is decoded in full by ``_entry``, with the errors and places a
JSON decode gives."""

import json
import re
from functools import cache, partial
from itertools import chain, groupby, repeat
from operator import attrgetter
from typing import Iterator, TextIO

from . import theta
from .presheaf import (ActionDomainError, Precat, PresheafError, TabledPrecat, Window,
                       WindowTable, _label_order)


def _positions(f: theta.ThetaMorphism, image, target: dict, source: dict) -> list[int]:
    """``image``, a dump's map of ``f``, as a position list, where ``target``
    and ``source`` index the cells of ``f``'s ends; else its first fault."""
    try:
        if len(image) == len(target):
            return [source[image[c]] for c in target]
    except (KeyError, TypeError):
        pass
    what = f"malformed dump: the map of {f}"
    for k in image:
        if k not in target:
            raise PresheafError(f"{what} has the key {k!r}, no cell of level {f.target}")
    for c in target:
        if c not in image:
            raise PresheafError(f"{what} gives the cell {c!r} no image")
    x = next(x for x in image.values() if type(x) is not str or x not in source)
    raise (ActionDomainError if type(x) is str else PresheafError)(
        f"{what} has the image {x!r}, no cell of level {f.source}")


def _no_float(number: str):
    raise PresheafError(f"malformed dump: the number {number} is not an int")


_DECODER = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)
_SCAN = _DECODER.scan_once
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*").match    # whitespace, at most one separator
# As ``presheaf.dump_chunks`` writes an action after another: from the ``,``
# before it to its components' inner text, its map (holding no ``}``) the one
# group; then that inner text, ``_CUT``, and its tail, the ends' values, and
# ``}}``.  ``_ACTION`` is one such action, from its ``{``, its parts grouped.
_MAPS = re.compile(r',\{"map":(\{[^}]*\}),"morphism":\{"components":\[')
_STEM = len(',{"map":,"morphism":{"components":[')      # that text, less its map
_CUT = '],"source":'
_ACTION = re.compile(r'\{"map":(\{[^}]*\}),"morphism":\{"components":\[([0-9,\[\]]*?)'
                     r'\],"source":(\[[0-9,]*\],"target":\[[0-9,]*\]\}\})').match
_N = "(?:0|[1-9][0-9]*)"
_INTS = re.compile(rf"(?:\[{_N}(?:,{_N})*\])?").fullmatch     # a list of ints, or nothing
_TAIL = re.compile(rf'\[(?:{_N}(?:,{_N})*)?\],"target":\[(?:{_N}(?:,{_N})*)?\]\}}\}}').fullmatch
_COMPONENTS = attrgetter("components")
_BLOCK = 1 << 18    # characters read from a dump file at a time
_AHEAD = 1 << 12    # characters held past a step's start, unless the text is run out
_SPAN = 1 << 16     # the most characters split at a time
_PAST = 12          # the most the decoder reads past a fault's place: ``\\uXXXX\\uXXXX``


def _entry(entry, seen: dict) -> tuple:     # a decoded action's ends, components and map
    m, image = entry["morphism"], entry["map"]
    ends, comps = (tuple(m["source"]), tuple(m["target"])), tuple(map(tuple, m["components"]))
    if not set(map(type, chain(*ends, *comps))) <= {int}:
        raise theta.InvalidMorphismError(f"morphism values must be ints: {m!r}")
    try:    # a map that is no dict or has an unhashable image: _positions names it
        image = seen.setdefault(pair := (tuple(image), tuple(image.values())), pair)
    except (TypeError, AttributeError):
        image = None, image
    return seen.setdefault(ends, ends), seen.setdefault(comps, comps), image


def _at_once(texts: list[str]):
    """``texts``, JSON values, decoded by one call, if they decode so and
    are as many; else ``None``."""
    try:
        values, end = _SCAN(text := "[" + ",".join(texts) + "]", 0)
    except (ValueError, StopIteration):
        return None
    return values if end == len(text) and len(values) == len(texts) else None


def _whole(text: str):
    """``text``, a JSON value decoded whole, else ``None``."""
    try:
        value, end = _SCAN(text, 0)
    except (ValueError, StopIteration):
        return None
    return value if end == len(text) else None


class _Parts:
    """An import's actions, taken as ``presheaf.dump_chunks`` writes them,
    by the texts of their parts, each checked the first time it is met: a
    map (``{...}``, stored once in ``maps``) decoded into ``images``, a tail
    (``[...],"target":[...]}}``) matched by ``_TAIL`` and decoded into
    ``ends``, and a components' inner text (``[0,1],[2]``) cut into lists
    of ints matched by ``_INTS`` (``units``, decoded into ``codes``, the
    text of each list by its value) into ``comps``, not decoded.  The maps
    met together are decoded in one call, and so are the lists.  An action
    with a part that fails is decoded in full and converted by ``_entry``,
    which raises its fault where the text places it.  ``tuples`` holds the
    tuples stored once."""

    def __init__(self):
        self.maps, self.images, self.ends, self.tuples = {}, {}, {}, {}
        self.comps, self.units, self.codes = set(), set(), {}
        self.span = _SPAN       # after an action not taken, _AHEAD, doubled back

    def stored(self, value: tuple) -> tuple:
        return self.tuples.setdefault(value, value)

    def decoded(self, text: str) -> tuple:      # a checked components' inner text
        return self.stored(tuple(map(tuple, _SCAN("[" + text + "]", 0)[0])))

    def _take(self, maps: list, comps: tuple, tails: tuple) -> tuple[list, int]:
        """The leading actions of these parts whose every part checks, in
        runs of equal tails (their ends, the components' inner texts joined
        by ``;``, each map stored once), and their number."""
        first = len(maps)
        if fresh := list(set(maps).difference(self.maps)):
            # decoded at once, each whole, as none holds a ``}`` but its last
            for text, value in zip(fresh, _at_once(fresh) or map(_whole, fresh)):
                try:    # an object
                    keys = tuple(value)
                    self.images[text] = self.tuples.setdefault(keys, keys), tuple(value.values())
                    self.maps[text] = text
                except (TypeError, AttributeError):
                    first = min(first, maps.index(text))
        if (fresh := set(comps).difference(self.comps)) and not self._lists(fresh):
            for text in fresh:
                if not self._lists((text,)):
                    first = min(first, comps.index(text))
        runs, at = [], 0
        for tail, group in groupby(tails[:first]):
            if (ends := self.ends.get(tail)) is None:
                if not _TAIL(tail):
                    return runs, at
                ends = tuple(map(tuple, _SCAN('{"source":' + tail[:-1], 0)[0].values()))
                ends = self.ends[tail] = self.stored(ends)
            end = at + len(list(group))
            runs.append((ends, ";".join(comps[at:end]), list(map(self.maps.__getitem__, maps[at:end]))))
            at = end
        return runs, first

    def _lists(self, texts) -> bool:
        """Whether each of ``texts`` is a components' inner text: none holds
        a ``;``, and each is empty or cut at each ``],[`` into lists of ints
        (``units``, each checked once and kept by its value in ``codes``);
        if so, they join ``comps``."""
        joined = ";".join(texts)
        if joined.count(";") != len(texts) - 1:
            return False
        units = set(joined.replace("],[", "];[").split(";")).difference(self.units)
        if not all(map(_INTS, units)):
            return False
        self.units |= units
        units.discard("")
        if units:   # decoded at once: lists of ints, each whole
            units = list(units)
            self.codes.update(zip(map(tuple, _SCAN("[" + ",".join(units) + "]", 0)[0]), units))
        self.comps |= set(texts)
        return True

    def texts(self, mors) -> str | None:
        """The components' inner texts of ``mors``, joined as a run's are,
        from the texts of the lists of ints met; ``None`` if one was not."""
        try:
            return ";".join(map(",".join, map(map, repeat(self.codes.__getitem__),
                                              map(_COMPONENTS, mors))))
        except KeyError:
            return None

    def action(self, text: str, start: int) -> tuple[list | tuple, int]:
        """A step: the action at ``start`` and, when their parts check, those
        that follow it whole in ``text``, in a list of runs as ``_take``
        gives them; else the action decoded in full and converted by
        ``_entry``."""
        if m := _ACTION(text, start):
            if _MAPS.match(text, m.end()):      # another such action follows
                runs, end = self._run(text, start)
                if runs:
                    return runs, end
            if runs := self._take((m[1],), (m[2],), (m[3],))[0]:     # that one alone
                return runs, m.end()
        got, end = _SCAN(text, start)
        return _entry(got, self.tuples), end

    def _run(self, text: str, start: int) -> tuple[list, int]:
        """The actions from ``start`` that ``self.span`` characters hold
        whole, with the next one's map or the list's end after, as ``_take``
        takes them: split at their maps by ``_MAPS``, and each piece between
        cut at ``_CUT`` into its components and its tail; and the place past."""
        pieces = _MAPS.split("," + text[start:start + self.span])
        maps, rest = pieces[1::2], pieces[2::2]
        if maps:
            last, close, _ = rest[-1].partition("}}]")
            if close:       # the list ends after the last action
                rest[-1] = last + "}}"
            else:
                del maps[-1], rest[-1]
        if not maps:
            return [], start
        comps, _, tails = zip(*map(str.partition, rest, repeat(_CUT)))
        runs, k = self._take(maps, comps, tails)
        self.span = min(2 * self.span, _SPAN) if k == len(maps) else _AHEAD
        return runs, start - 1 + k * _STEM + sum(map(len, maps[:k])) + sum(map(len, rest[:k]))


def _members(data: str | TextIO, seen: _Parts) -> Iterator[tuple[str, object]]:
    """The members of the JSON object ``data``, a text or an open text file
    read ``_BLOCK`` characters at a time, each value decoded whole but a list
    ``actions``: an iterator of its entries as ``seen.action`` takes them
    (lists of runs, or one entry as ``_entry`` keeps it), run out before the
    next member.
    Bad JSON, trailing text included, raises ``json.JSONDecodeError`` placed
    in the whole text; a value that is no object, ``PresheafError``."""
    blocks = iter((data,)) if isinstance(data, str) else iter(partial(data.read, _BLOCK), "")
    # the text held, the last end a step may take in it (a number ends 3 characters
    # before the text does: ``1e+5``), and the length and newlines of the text dropped
    buf, limit, gone, lines, last_nl = "", -1, 0, 0, -1

    def doc() -> str:       # the text dropped, blanked but for its newlines, then the text held
        return " " * (last_nl + 1 - lines) + "\n" * lines + " " * (gone - last_nl - 1) + buf

    def take(step, start: int):     # ``step(buf, start)``, a value and its end, once whole
        nonlocal buf, limit, gone, lines, last_nl
        ahead = _AHEAD      # held past ``start`` before a step, unless the text is run out
        while True:
            while len(buf) - start < ahead and limit < len(buf):
                if (nl := buf.rfind("\n", 0, start)) >= 0:
                    lines, last_nl = lines + buf.count("\n", 0, nl + 1), gone + nl
                gone, buf, start = gone + start, buf[start:], 0     # dropped before the read
                block = next(blocks, "")
                buf += block
                limit = len(buf) - 3 if block else len(buf)
            try:
                got, end = step(buf, start)
                if end <= limit:
                    return got, end
            except (StopIteration, ValueError) as exc:
                # a decode fault more text cannot change: run out, or placed
                # _PAST before the text held and no unterminated string
                at = exc.value if isinstance(exc, StopIteration) else getattr(exc, "pos", None)
                if limit == len(buf) or at is not None and at + _PAST < len(buf) \
                        and not str(exc).startswith("Unterminated string"):
                    _DECODER.raw_decode(doc(), gone + start)    # the whole text's fault
                    raise
            ahead = len(buf) - start + 1

    def sep(text: str, start: int):     # whitespace and at most one separator, as a step
        return (m := _SEP(text, start)), m.end()

    def items(close: str, step):    # each item of the list or object opened at ``at``
        nonlocal at
        if (m := take(sep, at + 1)[0])[1] != close:
            at = m.start(1)
            while True:
                got, at = take(step, at)
                yield got
                if buf.startswith(",{", at):    # the next object follows at once
                    at += 1
                elif (m := take(sep, at)[0])[1] == ",":
                    at = m.end()
                else:
                    break
            if m[1] != close:
                raise json.JSONDecodeError(f"Expecting ',' or {close!r}", doc(), gone + m.start(1))
        at = m.start(1) + 1

    at = take(sep, 0)[0].start(1)   # where the text not yet read starts
    if other := not buf.startswith("{", at):    # a value that is no object: decoded whole
        got, at = take(_SCAN, at)
    for key in () if other else items("}", _SCAN):
        m = take(sep, at)[0]        # starts at ``at``, wherever a refill moved it
        if type(key) is not str or m[1] != ":":
            raise json.JSONDecodeError("Expecting a key and ':'", doc(), gone + m.start())
        if key == "actions" and buf.startswith("[", m.end()):
            at = m.end()
            yield key, items("]", seen.action)
        else:
            got, at = take(_SCAN, m.end())
            yield key, got
    if (m := take(sep, at)[0]).start(1) < len(buf):   # json.loads: past the whitespace
        raise json.JSONDecodeError("Extra data", doc(), gone + m.start(1 if other else 0))
    if other:
        raise PresheafError(f"malformed dump: a {type(got).__name__}, not an object")


def _place(f: theta.ThetaMorphism, image: tuple, cells: tuple, shared: dict) -> list[int]:
    """The position list of ``image``, a map's keys and images (keys ``None``
    when it is no dict), where ``cells`` index the source's cells, list the
    target's labels and index its cells; one equal to it stored in
    ``shared`` if there is one."""
    (keys, images), (source, order, target), got = image, cells, None
    try:    # a map listing the target's cells in order, onto source cells
        if keys == order:
            got = [source[x] for x in images]
    except (KeyError, TypeError):
        pass
    got = got or _positions(f, images if keys is None else dict(zip(keys, images)), target, source)
    return shared.setdefault(tuple(got), got)


@cache      # every import of a window checks its levels and counts its morphisms
def _window(n: int, B: int) -> tuple[frozenset, int]:
    window = theta.window_objects(n, B)
    return frozenset(window), sum(theta.count_morphisms(s, t) for s in window for t in window)


def read(data: str | dict | TextIO, name: str = "dump") -> Precat:
    """A canonical dump, its JSON text, an open text file or a dict, as a
    ``WindowTable`` of position lists, equal lists stored once, checked in
    full: a dump missing a key or holding a value of the wrong shape raises
    ``PresheafError``.  ``n`` must be an int >= 0 and the window's ``B`` an
    int >= 1 whose levels and morphisms are all listed, each level's
    ``object`` a list of ints >= 1 and its ``cells`` a list of distinct
    strings, each action's ends listed levels, its components a normal form
    of ints and its ``map`` a dict sending each target cell to a source
    cell (else ``ActionDomainError``).  No level or morphism may be listed
    twice.  Whatever forms the process holds, a float is refused, and so is
    a bool among the ends and components: every action of a dict, and every
    action of a text not written as ``presheaf.dump_chunks`` writes one,
    goes through ``_entry``'s type check, and the grammar of a text written
    so admits ints only."""
    def require(ok: bool, what: str):
        if not ok:
            raise PresheafError(f"malformed dump: {what}")

    try:
        top, seen, runs, run = {}, _Parts(), [], [None, [()], []]
        for key, value in data.items() if isinstance(data, dict) else _members(data, seen):
            top[key] = value
            if key != "actions":
                continue
            require(isinstance(value, (list, Iterator)), f"actions is a {type(value).__name__}")
            if isinstance(data, dict):
                value = (_entry(entry, seen.tuples) for entry in value)
            # kept in runs of equal ends: their maps, and the texts their
            # components were checked as, joined, or those decoded
            for got in value:
                if type(got) is tuple:      # an action decoded in full
                    ends, comps, image = got
                    if ends is not run[0] or type(run[1][0]) is str:
                        runs.append(run := [ends, [], []])
                    run[1].append(comps)
                    run[2].append(image)
                    continue
                for ends, comps, maps in got:
                    if ends is not run[0] or type(run[1][0]) is not str:
                        runs.append(run := [ends, [], []])
                    run[1].append(comps)
                    run[2] += maps
        n = top["n"]
        require(type(n) is int and n >= 0, f"n is {n!r}, not an int >= 0")
        levels, objects, orders = {}, {}, {}
        for lv in top["levels"]:
            entries, cells = lv["object"], lv["cells"]
            require(type(entries) is list and set(map(type, entries)) <= {int},
                    f"object {entries!r} is not a list of ints")
            require(min(entries, default=1) >= 1, f"object {entries!r} has an entry < 1")
            require(type(cells) is list and set(map(type, cells)) <= {str}
                    and len(set(cells)) == len(cells),
                    f"cells of {entries} are not a list of distinct strings")
            M = objects[tuple(entries)] = theta.object_of(n, entries)
            require(M not in levels, f"level {M} listed twice")
            levels[M] = _label_order(cells, cells)
            orders[M] = seen.stored(tuple(levels[M][1]))     # a map's keys when in order
        B = top["window"]["B"]
        require(type(B) is int and B >= 1, f"window B is {B!r}, not an int >= 1")
        # count the window's levels first, so a huge B or n lists no objects
        size = sum(B ** k for k in range(min(n, len(levels)) + 1))
        window = size <= len(levels) and _window(n, B)[0]
        require(window and all(M in levels for M in window),
                f"a level of window B={B} is not listed")
        acts, shared, places, pairs, listed = {}, {}, {}, set(), 0
        image_of = seen.images.__getitem__
        for ends, parts, maps in runs:
            E = list(map(objects.get, ends))
            if None in E:
                require(False, f"an end of the morphism {ends} is not a listed level")
            listed += len(maps) if E[0] in window and E[1] in window else 0
            source = levels[E[0]][2]
            cells = source, orders[E[1]], levels[E[1]][2]
            fresh = (pair := (E[0], E[1])) not in pairs
            pairs.add(pair)
            if type(parts[0]) is str:
                parts, mors = ";".join(parts), fresh and theta.enumerate_morphisms(*E)
                if mors and parts == seen.texts(mors):
                    # the run lists the morphisms of its ends in order: each is the form at its place
                    got, placed = {}, places.setdefault(E[0], {})
                    for text in dict.fromkeys(maps):    # each distinct map of a run once
                        keys, images = image = image_of(text)
                        if keys is not cells[1]:
                            got[text] = _place(mors[maps.index(text)], image, cells, shared)
                        elif (place := placed.get(text)) is not None:
                            got[text] = place
                        else:   # placed by its images, once per source
                            try:
                                place = [source[x] for x in images]
                                place = shared.setdefault(tuple(place), place)
                            except (KeyError, TypeError):   # an image no cell: named
                                place = _place(mors[maps.index(text)], image, cells, shared)
                            got[text] = placed[text] = place
                    acts.update(zip(mors, map(got.__getitem__, maps)))
                    continue
                parts = list(map(seen.decoded, parts.split(";")))
            done, form = {}, theta.ThetaMorphism
            for comps, image in zip(parts, maps):
                f = form(*E, comps)
                if f in acts:
                    require(False, f"the action of {f} listed twice")
                if (got := done.get(id(image))) is None:    # each distinct map of a run once
                    got = done[id(image)] = _place(
                        f, image_of(image) if type(image) is str else image, cells, shared)
                acts[f] = got
        # count the listed actions of the window against its morphisms: only
        # a shortfall lists them, to name the first one missing
        if listed < _window(n, B)[1]:
            missing = next(f for _, _, mors in Window(B).morphisms(n) for f in mors
                           if f not in acts)
            require(False, f"the action of {missing} is not listed")
    except (KeyError, TypeError, AttributeError, theta.ThetaError) as exc:
        raise PresheafError(f"malformed dump: {type(exc).__name__}: {exc}") from exc
    return TabledPrecat(n, WindowTable(levels, acts, f"{name} of window B={B}"), name)
