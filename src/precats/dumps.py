"""Canonical dumps, written a chunk at a time (``dump_chunks``) and read
back (``read``) as tables of position lists, checked in full, from their
text or file a block and a member at a time, with no JSON tree.  Loaded by
the first dump written or read.

A canonical dump lists the actions of each level pair (a run) together, in
the order ``theta.pair_components`` gives the pair's morphisms, and its
levels, ``n`` and window (``_window``) after them.  Writer and reader share
an action's text pieces: ``_OPEN``, ``_MIDDLE``, ``_CUT`` and ``_TARGET``.
Actions are read in two phases.  As the text is read, the actions held are
split at their map texts by one pattern and cut between maps at ``_CUT`` by
``str.partition``; each map and tail is decoded the first time it is met,
and a components text is only checked, never decoded (``_Parts``).  Once
the levels are read, each run takes one path into its pair's list: its
ranks are its positions when the pair is new and its components texts,
joined, equal its pair's ``components_text`` (one comparison, no form
built), else the ``theta.rank`` of each decoded form; a place already
filled is a morphism listed twice, and each distinct map becomes a position
list once (``_place``).  A window pair with no list, or a gap in its list,
is a morphism not listed.  An action that fails a check of the first phase,
and every action of a dict, is decoded in full by ``_entry``, with the
errors and places a JSON decode gives."""

import json
import re
from functools import cache, partial
from itertools import chain, groupby, repeat
from typing import Iterator, TextIO

from . import theta
from .presheaf import (ActionDomainError, Precat, PresheafError, TabledPrecat, Window,
                       WindowTable, _label_order)

# An action's text: _OPEN, its map {...}, _MIDDLE, its components' inner text,
# _CUT, its source, _TARGET, its target and }}.
_OPEN, _MIDDLE = '{"map":', ',"morphism":{"components":['
_SOURCE, _TARGET = '"source":', ',"target":'
_CUT = "]," + _SOURCE
_CHUNK_MAPS = 64    # a chunk's pieces and text are alive together: bound them


def _ints(xs) -> str:
    return "[" + ",".join(map(str, xs)) + "]"


def _map_text(keys: list[str], source: list[str], act: list[int]) -> str:
    return ",".join([k + source[i] for k, i in zip(keys, act)])


def _map_texts(acts: list[list[int]], keys: list[str], source: list[str]) -> list[str]:
    """The ``_map_text`` of each of ``acts``, built once per distinct list,
    each list object read once."""
    ids = list(map(id, acts))
    lists, texts = dict(zip(ids, acts)), {}
    for key, act in lists.items():
        if (got := texts.get(tuple(act))) is None:
            got = texts[tuple(act)] = _map_text(keys, source, act)
        lists[key] = got
    return list(map(lists.__getitem__, ids))


@cache      # once a process for each level pair: the writer's and the reader's
def components_text(s: theta.ThetaObject, t: theta.ThetaObject) -> str:
    """The components' inner text (``[0,1],[2]``) of each morphism ``s ->
    t`` as a dump writes it, in ``theta.pair_components`` order, joined by
    ``;``, each component's text built once."""
    comps = theta.pair_components(s, t)
    texts = {c: _ints(c) for c in set(chain.from_iterable(comps))}
    return ";".join([",".join(map(texts.__getitem__, f)) for f in comps])


@cache      # every dump of a window writes or checks its levels and its level pairs
def _window(n: int, B: int) -> tuple[list, list]:
    return theta.window_objects(n, B), Window(B).pairs(n)


def dump_chunks(P: Precat, window: Window) -> Iterator[str]:
    """The text ``json.dumps`` gives the window's dump with sorted keys, no
    spaces and ASCII escapes, chunks of ``_CHUNK_MAPS`` maps of a pair of
    levels at most, then the levels, joined from each level's encoded
    labels: its cells' keys, so a tie is a ``PresheafError``, in ``str``
    order, key order, so labels out of order are a fault of the table.
    Every fault raises before the first chunk.  Each level pair's actions
    are its ``acts`` lists in morphism order, written beside its
    ``components_text``; each level's entries text is built once, and each
    map text once per distinct list and pair (``_map_texts``)."""
    T, encode, codes = P.table, json.encoder.encode_basestring_ascii, {}
    objects, pairs = _window(P.n, window.B)
    entries = {M: _ints(M.entries) for M in objects}
    for M in entries:
        labels = T.labels(M)
        for a, b in zip(labels, labels[1:]):
            if a == b:
                raise PresheafError(f"cells of level {M} share the label {a!r}")
            if a > b:
                raise RuntimeError(f"cells of level {M} are not in label order at {b!r}")
        codes[M] = [encode(x) for x in labels]
    # position lists first: made between text pieces, they'd pin freed pools
    acts = [(s, t, T.acts(s, t)) for s, t in pairs]

    def chunks():
        sep, after, middle = '{"actions":[' + _OPEN + "{", "," + _OPEN + "{", "}" + _MIDDLE
        for s, t, lists in acts:
            ends = f"{_CUT}{entries[s]}{_TARGET}{entries[t]}}}}}"
            glue, texts = ends + after, components_text(s, t).split(";")
            maps = _map_texts(lists, [x + ":" for x in codes[t]], codes[s])
            for i in range(0, len(lists), _CHUNK_MAPS):
                yield sep + glue.join(map(middle.join, zip(
                    maps[i:i + _CHUNK_MAPS], texts[i:i + _CHUNK_MAPS]))) + ends
                sep = after
        yield '],"levels":[' + ",".join(
            '{"cells":[' + ",".join(cells) + f'],"object":{entries[M]}}}'
            for M, cells in codes.items()) + f'],"n":{P.n},"window":{{"B":{window.B}}}}}\n'
    return chunks()


def _no_float(number: str):
    raise PresheafError(f"malformed dump: the number {number} is not an int")


_DECODER = json.JSONDecoder(parse_float=_no_float, parse_constant=_no_float)
_SCAN = _DECODER.scan_once
_SEP = re.compile(r"[ \t\n\r]*([,:\]}]?)[ \t\n\r]*").match    # whitespace, at most one separator
# ``_MAPS``: an action after another, from the ``,`` before it to its
# components' inner text, its map (holding no ``}`` but its last) the one
# group, ``_STEM`` characters but for it; ``_TAIL``: its text after ``_CUT``;
# ``_ACTION``: one action, from its ``{``, its map, components and tail grouped.
_MAP = r"(\{[^}]*\})"
_MAPS = re.compile(re.escape("," + _OPEN) + _MAP + re.escape(_MIDDLE))
_STEM = len("," + _OPEN + _MIDDLE)
_ACTION = re.compile(re.escape(_OPEN) + _MAP + re.escape(_MIDDLE) + r"([0-9,\[\]]*?)"
                     + re.escape(_CUT) + r"(\[[0-9,]*\]" + re.escape(_TARGET)
                     + r"\[[0-9,]*\]\}\})").match
_N = "(?:0|[1-9][0-9]*)"
_INTS = re.compile(rf"(?:\[{_N}(?:,{_N})*\])?").fullmatch     # a list of ints, or nothing
_LIST = rf"\[(?:{_N}(?:,{_N})*)?\]"     # a list of ints, maybe empty
_TAIL = re.compile(_LIST + re.escape(_TARGET) + _LIST + r"\}\}").fullmatch
_BLOCK = 1 << 18    # characters read from a dump file at a time
_AHEAD = 1 << 12    # characters held past a step's start, unless the text is run out
_SPAN = 1 << 16     # the most characters split at a time
_PAST = 12          # the most the decoder reads past a fault's place: ``\\uXXXX\\uXXXX``


def _entry(entry, seen: "_Parts") -> tuple:    # a decoded action's ends, components and map key
    m, image = entry["morphism"], entry["map"]
    ends, comps = (tuple(m["source"]), tuple(m["target"])), tuple(map(tuple, m["components"]))
    if not set(map(type, chain(*ends, *comps))) <= {int}:
        raise theta.InvalidMorphismError(f"morphism values must be ints: {m!r}")
    try:    # a map that is no dict or has an unhashable image: _place names it
        image = seen.stored((seen.stored(tuple(image)), tuple(image.values())))
    except (TypeError, AttributeError):
        image = None, image
    seen.images[id(image)] = image
    return seen.stored(ends), seen.stored(comps), id(image)


def _at_once(texts: list[str]):
    """``texts``, JSON values, decoded by one call, if they decode so and
    are as many; else ``None``."""
    try:
        values, end = _SCAN(text := "[" + ",".join(texts) + "]", 0)
    except (ValueError, StopIteration):
        return None
    return values if end == len(text) and len(values) == len(texts) else None


class _Parts:
    """An import's actions, taken as ``dump_chunks`` writes them,
    by the texts of their parts, each checked the first time it is met: a
    map (``{...}``, stored once in ``maps``) decoded into ``images``, a tail
    (``[...],"target":[...]}}``) matched by ``_TAIL`` and decoded into
    ``ends``, and a components' inner text (``[0,1],[2]``) cut into lists
    of ints matched by ``_INTS`` (``units``) into ``comps``, not decoded.
    The maps met together are decoded in one call.  An action
    with a part that fails is decoded in full and converted by ``_entry``,
    which raises its fault where the text places it and keeps its map in
    ``images`` by its identity.  ``tuples`` holds the tuples stored once."""

    def __init__(self):
        self.maps, self.images, self.ends, self.tuples = {}, {}, {}, {}
        self.comps, self.units = set(), set()
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
            # decoded at once, else each alone, as none holds a ``}`` but its last
            values = _at_once(fresh) or [(_at_once([text]) or (None,))[0] for text in fresh]
            for text, value in zip(fresh, values):
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
                ends = tuple(map(tuple, _SCAN("{" + _SOURCE + tail[:-1], 0)[0].values()))
                ends = self.ends[tail] = self.stored(ends)
            end = at + len(list(group))
            runs.append((ends, ";".join(comps[at:end]), list(map(self.maps.__getitem__, maps[at:end]))))
            at = end
        return runs, first

    def _lists(self, texts) -> bool:
        """Whether each of ``texts`` is a components' inner text: none holds
        a ``;``, and each is empty or cut at each ``],[`` into lists of ints
        (``units``, each checked once); if so, they join ``comps``."""
        joined = ";".join(texts)
        if joined.count(";") != len(texts) - 1:
            return False
        units = set(joined.replace("],[", "];[").split(";")).difference(self.units)
        if not all(map(_INTS, units)):
            return False
        self.units |= units
        self.comps |= set(texts)
        return True

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
        return _entry(got, self), end

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


def _place(E: tuple, k: int, image: tuple, cells: tuple, shared: dict) -> list[int]:
    """The position list of ``image``, the map of the morphism of rank ``k``
    between the levels ``E``: its keys and images (keys ``None`` when it is
    no dict), where ``cells`` index the source's cells, list the target's
    labels and index its cells; one equal to it stored in ``shared`` if
    there is one; else its first fault."""
    (keys, images), (source, order, target), got = image, cells, None
    try:
        if keys is order:       # the target's cells in order, onto source cells
            got = [source[x] for x in images]
        elif len(image := images if keys is None else dict(zip(keys, images))) == len(target):
            got = [source[image[c]] for c in target]
    except (KeyError, TypeError):
        pass
    if got is not None:
        return shared.setdefault(tuple(got), got)
    image = images if keys is None else dict(zip(keys, images))
    f = theta.enumerate_morphisms(*E)[k]
    what = f"malformed dump: the map of {f}"
    for x in image:
        if x not in target:
            raise PresheafError(f"{what} has the key {x!r}, no cell of level {f.target}")
    for c in target:
        if c not in image:
            raise PresheafError(f"{what} gives the cell {c!r} no image")
    x = next(x for x in image.values() if type(x) is not str or x not in source)
    raise (ActionDomainError if type(x) is str else PresheafError)(
        f"{what} has the image {x!r}, no cell of level {f.source}")


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
    action of a text not written as ``dump_chunks`` writes one,
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
                value = (_entry(entry, seen) for entry in value)
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
        window = size <= len(levels) and _window(n, B)
        require(window and all(M in levels for M in window[0]),
                f"a level of window B={B} is not listed")
        pairs, shared, places = {}, {}, {}     # each level pair's position lists
        for ends, parts, maps in runs:
            E = s, t = tuple(map(objects.get, ends))
            if None in E:
                require(False, f"an end of the morphism {ends} is not a listed level")
            if type(parts[0]) is str:   # the texts its components were checked as
                parts = ";".join(parts)
                parts = None if E not in pairs and parts == components_text(s, t) else \
                    list(map(seen.decoded, parts.split(";")))
            # a new pair's morphisms in order are at their positions, else each form at its rank
            ranks = range(len(maps)) if parts is None else map(
                theta.rank, map(theta.ThetaMorphism, repeat(s), repeat(t), parts))
            slots = pairs.setdefault(E, [None] * len(theta.pair_components(s, t)))
            cells = levels[s][2], orders[t], levels[t][2]
            # a map's list depends on its source and its target's labels alone
            placed = places.setdefault((s, cells[1]), {})
            for k, key in zip(ranks, maps):
                if slots[k] is not None:
                    require(False, f"the action of {theta.enumerate_morphisms(*E)[k]} listed twice")
                if (place := placed.get(key)) is None:      # each distinct map placed once
                    place = placed[key] = _place(E, k, seen.images[key], cells, shared)
                slots[k] = place
        for pair in window[1]:      # each window pair listed, with no gap: else the first gap
            if None in (slots := pairs.get(pair, (None,))):
                missing = theta.enumerate_morphisms(*pair)[slots.index(None)]
                require(False, f"the action of {missing} is not listed")
    except (KeyError, TypeError, AttributeError, theta.ThetaError) as exc:
        raise PresheafError(f"malformed dump: {type(exc).__name__}: {exc}") from exc
    return TabledPrecat(n, WindowTable(levels, pairs, f"{name} of window B={B}"), name)
