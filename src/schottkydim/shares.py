"""A large level's descendants shared out among processes.

:func:`~schottkydim.certify.level_sums` imports this module only for a
level with enough words left below it to pay for worker processes (see
:data:`~schottkydim.certify.SPLIT_WORDS`), so a level sum that never
splits loads neither it nor :mod:`multiprocessing`.
"""

from __future__ import annotations

import copy

from .scalars import dyadic_sum


def share_sums(func, children, start, shares: int) -> list:
    """[(exact, bound) for n = j+1..n_max]: the words of ``start`` = (j,
    level) dealt round-robin into ``shares`` shares (:func:`deal`), each
    share's sums func(rule, (j, share)) taken on their own, the first in
    this process and each other one in a worker process (:func:`starmap`),
    and added per level.  Every deeper word has exactly one suffix of
    length j, so the shares' descendants share no word."""
    j, level = start
    tasks = [(rule, (j, share))
             for rule, share in deal(children, level, shares)]
    return [(dyadic_sum(e for e, _ in sums), dyadic_sum(b for _, b in sums))
            for sums in zip(*starmap(func, tasks))]


def deal(children, level, shares: int) -> list:
    """[(rule, share)]: the words of ``level``, the disks of the level of
    the last :meth:`~schottkydim.certify._Children.level` call of
    ``children``, dealt into ``shares`` levels of the same layout
    (:func:`deal_level`), each with a copy of ``children`` for its words'
    children.  The first copy keeps the caps of the children left out so
    far; the others start with none."""
    dealt = deal_level(level, shares)
    caps = (None if children.threshold is None else deal_level(
        [(b, children.caps[b]) for b, _ in level], shares))
    rules = []
    for i in range(shares):
        rule = copy.copy(children)
        if caps is not None:
            rule.caps = dict(caps[i])
        if i:
            rule.capped = {}
        rules.append(rule)
    return list(zip(rules, dealt))


def deal_level(level, shares: int) -> list:
    """The items of a level, in the layout of
    :func:`~schottkydim.words.prepend_levels`, dealt round-robin in word
    order into ``shares`` levels of the same layout."""
    dealt = [[] for _ in range(shares)]
    dealt_before = 0
    for first, items in level:
        for i, share in enumerate(dealt):
            share.append((first, items[(i - dealt_before) % shares::shares]))
        dealt_before += len(items)
    return dealt


def _send_result(conn, func, args) -> None:
    """A worker process's body: send (True, func(*args)), or (False, the
    exception it raised), over the write end ``conn`` of a pipe."""
    try:
        message = (True, func(*args))
    except Exception as exc:  # raised again in the parent
        message = (False, exc)
    conn.send(message)
    conn.close()


def starmap(func, tasks: list) -> list:
    """[func(*task) for task in tasks]: the first task in this process and
    each other one in a worker process, started by fork where the platform
    has it and by spawn otherwise.  Each worker sends its result back over
    a one-way pipe.  An exception, here or in a worker, is raised here
    after the workers still running are terminated; every worker has been
    joined when this returns or raises."""
    import multiprocessing  # only here, so importing the package stays cheap
    # fork starts a worker without re-importing the package; the arguments
    # are plain picklable values, so spawn works as well where fork is absent
    methods = multiprocessing.get_all_start_methods()
    mp = multiprocessing.get_context("fork" if "fork" in methods else "spawn")
    workers = []
    try:
        for task in tasks[1:]:
            receiver, sender = mp.Pipe(duplex=False)
            worker = mp.Process(target=_send_result,
                                args=(sender, func, task))
            workers.append((worker, receiver))
            worker.start()
            sender.close()  # the worker holds the only write end
        results = [func(*tasks[0])]
        for worker, receiver in workers:
            try:
                ok, value = receiver.recv()
            except EOFError:
                worker.join()
                raise RuntimeError(f"a level-sum worker process exited "
                                   f"with code {worker.exitcode} and no "
                                   f"result") from None
            if not ok:
                raise value
            results.append(value)
        return results
    except BaseException:
        for worker, _ in workers:
            if worker.is_alive():
                worker.terminate()
        raise
    finally:
        for worker, receiver in workers:
            if worker.pid is not None:  # started
                worker.join()
            receiver.close()
