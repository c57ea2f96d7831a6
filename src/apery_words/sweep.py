"""The generated loop of the oracle sweep.

`oracle._partial_sums` sweeps a batch of jobs over n in segments and keeps
their state between segments; `compile_plan` writes the per-index
recurrences of one segment as straight-line Python over locals, for the jobs
that run in it, and compiles that source.  Each local is one big integer
scaled by 2^F, and every floor is the one the index-by-index recurrence
takes.
"""

from __future__ import annotations

from collections.abc import Callable

# a trie node of chain levels: (its parent's position, -1 at a root, whether
# it reads its parent's sum at n (a weak link) or at n - 1, its level
# (m, c, e): the index m*n + c and that index's exponent).  Its start is
# only in the trie's key: a plan reads the nodes of started jobs alone
Node = tuple[int, bool, tuple[int, int, int]]
# what one plan reads of a group of jobs that differ only in their head:
# (x's position, binomial power - 1, its chain tops' (node, weak link),
# [(head (m, c, q), job position)] by head)
Group = tuple[int, int, tuple[tuple[int, bool], ...], list[tuple[tuple[int, int, int], int]]]


def _paren(expr: str) -> str:
    return f"({expr})" if " " in expr else expr


def compile_plan(
    F: int,
    x2: dict[int, int | None],
    nodes: list[Node],
    groups: list[Group],
    zero: bool,
) -> tuple[Callable[..., dict[str, int]], list[str]]:
    """Compile the loop that adds the indices lo..hi-1 of one segment.

    Returns (plan, names).  plan(lo, hi, *values) takes the state that
    `names` names as its arguments, which are its locals, and returns its
    locals, the state among them advanced over the segment: a{i}, the last
    a_n(x) of each x i in `x2` (position -> x^2 scaled by 2^F, None for
    x = 1); v{i}, the value of each trie node the groups read; t{j}, the
    total of each of their jobs.  The state goes in as arguments and out as
    locals() because a load and a store per name took more tokens, and so
    more of the parser's memory, than the loop itself.  The loop runs
    k = 2n - 1 over the segment.  Per index it steps each a_n(x) and squares
    those read squared; adds to each node its parent's sum (1 at a root)
    floor-divided e times by its index; then it divides each group's
    product (a^p * tops) >> F by its heads' indices, chaining the quotients
    of heads that share (m, c) in ascending q.  A child or group reads a
    node by its own link: v{i} after the add under a weak one, u{i}, a copy
    taken before it only if some reader is strict, under a strict one.  An
    index m*n + c is written from k, a local only if read more than once.
    With `zero` the plan is for n = 0 alone: a_0 = 1 takes no step and an
    index 0 reads as 1.  The source holds only integer literals and
    generated names.
    """
    used: set[int] = set()
    for _, _, tops, _ in groups:
        for node, _ in tops:
            while node >= 0 and node not in used:
                used.add(node)
                node = nodes[node][0]
    live = sorted(used)  # a parent before its children
    # the nodes that a reader, a child or a group, reads at n - 1
    strict = {nodes[i][0] for i in live if not nodes[i][1]}
    strict |= {node for _, _, tops, _ in groups for node, weak in tops if not weak}
    # floor divisions per index by each index m*n + c; the a_n step reads 2n
    uses: dict[tuple[int, int], int] = {}
    if not zero:
        uses[2, 0] = len(x2)
    for i in live:
        m, c, e = nodes[i][2]
        uses[m, c] = uses.get((m, c), 0) + e
    for _, _, _, members in groups:
        deepest = {head[:2]: head[2] for head, _ in members}  # heads ascend in q
        for (m, c), q in deepest.items():
            uses[m, c] = uses.get((m, c), 0) + q
    base: dict[tuple[int, int], str] = {}
    body = []
    for (m, c), count in uses.items():
        # m is 1 or 2: 2n + c is k + (1 + c), and n + c is (k + 1 + 2c) >> 1
        expr = "k" if (m, c) == (2, -1) else f"k + {1 + c}" if m == 2 else f"k + {1 + 2 * c} >> 1"
        if zero:
            expr += " or 1"
        expr = _paren(expr)
        if count > 1 and expr != "k":
            name = f"c{len(body)}"
            body.append(f"{name} = {expr}")
            expr = name
        base[m, c] = expr
    if not zero:
        for i, sq in x2.items():
            step = f"a{i} * k // {base[2, 0]}"
            body.append(f"a{i} = {step}" if sq is None else f"a{i} = {step} * {sq} >> {F}")
    body += [f"b{i} = a{i} * a{i} >> {F}" for i in sorted({xi for xi, p, _, _ in groups if p})]
    for i in live:
        parent, weak, (m, c, e) = nodes[i]
        if i in strict:
            body.append(f"u{i} = v{i}")
        top = f"{'uv'[weak]}{parent}" if parent >= 0 else 1 << F
        body.append(f"v{i} += {top}" + f" // {base[m, c]}" * e)
    for xi, p, tops, members in groups:
        # (w * t) // (L^q << F) == ((w * t) >> F) // L^q for L^q > 0; at
        # n = 0, where 2n - 1 = -1, w * t is a multiple of 2^F
        prod = f"{'ab'[p]}{xi}"
        for node, weak in tops:
            prod = f"{_paren(prod)} * {'uv'[weak]}{node} >> {F}"
        if len(members) > 1 and " " in prod:
            body.append(f"w = {prod}")
            prod = "w"
        done: dict[tuple[int, int], tuple[int, str]] = {}
        for at, ((m, c, q), j) in enumerate(members):
            q_done, quot = done.get((m, c), (0, prod))
            if q > q_done:
                quot = _paren(quot) + f" // {base[m, c]}" * (q - q_done)
                if at + 1 < len(members) and members[at + 1][0][:2] == (m, c):
                    body.append(f"q = {quot}")
                    quot = "q"
            body.append(f"t{j} += {quot}")
            done[m, c] = q, quot
    names = [f"a{i}" for i in x2] + [f"v{i}" for i in live]
    names += [f"t{j}" for _, _, _, members in groups for _, j in members]
    source = "\n    ".join(
        [f"def plan(lo, hi, {', '.join(names)}):", "for k in range(2 * lo - 1, 2 * hi - 1, 2):"]
        + ["    " + line for line in body]
        + ["return locals()"]
    )
    namespace: dict = {}
    exec(compile(source, "<oracle plan>", "exec"), namespace)
    # the function alone, so that it does not keep itself alive through its globals
    return namespace.pop("plan"), names
