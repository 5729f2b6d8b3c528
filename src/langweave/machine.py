"""The environment machine: calls run in dicts of names, not copied bodies.

`run_chain`, which `evaluator.apply_value` tries first, is a loop in the
manner of the CEK machine over a closed, quiet lambda applied to closed
values, whose body is a straight line of links (see `_straight_line`).  A
build subject among a builtin's operands is copied with the dict
substituted.  The shape is decided once per lambda, kept with its pair.
Plain parameters take closed leaf values (`terms._CLOSED`, what every
immediate action is called with) in one pass; only a pack, a splice or
another value goes through the general binding.

`drain` runs any other body, and `_finish` the shell `finalize` returns,
in the manner of normalization by evaluation: each call of a lambda value
binds its parameters in a fresh dict, whose values may be symbolic (a
function-time stage, a residual output, the shell's pack), and goes on at
its body in post-order.  Under a call, a lambda whose body wakes under the
dict is entered first, its binders named as the call's copy names them; a
primitive that is on while a body below it is on too runs once that rest
is built, and the rest is drained again with its outputs bound.  Only what
stays residual is built, sharing every subtree the dict cannot reach; the
pack is narrowed once, when a splice of it must fill fixed parameters;
of the dicts that wait, only a value that may mention the pack is
rewritten.  A fragment call that must narrow the pack first only mints
the names of its slot wrappers, as the `step` loop's discarded call does;
the wrappers are made once the call binds.
What neither loop can run (a `fix`, a symbolic operand, a callee that is
no lambda, ...) is substituted from the dict, which is the tree the `step`
loop would have reached, and that loop goes on from it.  The renames,
fresh names, steps and events are the `step` loop's, in its order.

The machine calls `eval_prim`, `subst_body`, `subst_term` and
`child_bodies` through the evaluator module (`E.eval_prim`, ...), so that
a tracer that replaces one there sees the machine's calls too.  The
evaluator imports this module last, once its own names are defined.
"""

from . import evaluator as E, prims as P
from .errors import ArityMismatch, LangError
from .evaluator import (_NeedsRefine, _Unready, _bind, _count_step, _do_builtin,
                        _flatten, _prim_step, _return)
from .fragments import subject_call_args, wrapper_names
from .names import FreshNames
from .terms import (TOP, App, Body, Builtin, FragVal, Lam, Param, PrimB, RetK,
                    Splice, StageOp, TupleT, Var, _CLOSED, _rebind, _untouched,
                    body_info, lam_info, mapped_free, postorder, stage_value,
                    subst_stage, subst_term, term_info)


def _closed(term):
    """No free name and no active body: binding it can capture nothing, and
    nothing in it runs before the body it is passed to."""
    if type(term) in _CLOSED:
        return True
    names = set()
    return not term_info(term, names) and not names


def _mentions(term, name):
    """Whether substituting for `name` can change `term`: it is that name,
    or its cached pair has the name free or an active body."""
    if type(term) is Var:
        return term.name == name
    names = set()
    return term_info(term, names) or name in names


def _name_or_closed(term):
    return isinstance(term, Var) or _closed(term)


def _operand(term):
    """A name, a splice of a name, or a closed term: what `_value` reads."""
    return _name_or_closed(term) or type(term) is Splice and type(term.inner) is Var


def _stays_off(lam):
    """Whether no stage expression in the lambda `lam` names one of its free
    names, so that no value bound outside turns a body in it on."""
    names = set()
    for body in postorder(lam.body):
        term_info(body.stage, names)
    return names.isdisjoint(lam_info(lam)[0])


def _straight_line(lam):
    """Whether the environment loop may run a call of `lam`: it is closed
    and quiet, and its body is a line of links, each staged on the stage
    the link before it binds (or on `&` and `|` of it and constants).  A
    link is a primitive over names and closed terms, or a builtin but `if`
    whose operands are `_operand`s or lambdas with no stage naming one of
    their free names (post-order would run such a body first), and whose
    last argument is a continuation lambda with plain parameters or a name.
    A call of a name on `_operand`s ends the line, staged on any name the
    link before it binds."""
    free, active = lam_info(lam)
    if free or active:
        return False
    body, bound = lam.body, (lam.stage, *(p.name for p in lam.params))
    while True:
        form, names = body.form, set()
        term_info(body.stage, names)
        if isinstance(form, App) and isinstance(form.callee, Var):
            return names <= set(bound) and all(map(_operand, form.args))
        if names != {bound[0]} or type(body.stage) is StageOp \
                and not stage_value(subst_stage(body.stage, {bound[0]: TOP})):
            return False
        if isinstance(form, PrimB):
            if not all(map(_name_or_closed, form.expr.embedded_terms())):
                return False
            body, bound = form.rest, (form.cont_stage, *form.outs)
            continue
        if not isinstance(form, App) or not isinstance(form.callee, Builtin) \
                or form.callee.name == "if" or not form.args:
            return False
        *operands, k = form.args
        if not all(_operand(t) or isinstance(t, Lam) and _stays_off(t)
                   for t in operands):
            return False
        if isinstance(k, Var):
            return True
        if not isinstance(k, Lam) or any(p.packed for p in k.params):
            return False
        body, bound = k.body, (k.stage, *(p.name for p in k.params))


def _chain_shape(lam):
    """`_straight_line(lam)`, decided once and kept after the lambda's
    cached pair, so that it is decided again when the pair is renewed."""
    info = lam.info
    if info is None or len(info) == 2 or info[0] is not lam.body.info:
        lam_info(lam)  # a fresh pair, without the shape
        lam.info += (_straight_line(lam),)
    return lam.info[2]


def _value(session, env, term, avoid=frozenset()):
    """A term's value in the loop: a name's from `env`, a splice of a name
    the splice of its value, and any other term with `env` substituted, as
    `subst_term` does with `avoid` (the frame's closed values need none)."""
    kind = type(term)
    if kind is Var:
        return env.get(term.name, term)
    if kind is Splice and type(term.inner) is Var:
        return Splice(env[term.inner.name]) if term.inner.name in env else term
    if kind is Lam and _untouched(lam_info(term), env):
        return term
    return term if kind in _CLOSED else E.subst_term(term, env, session.names, avoid)


def run_chain(session, lam, args):
    """Run the call of `lam` on `args` in one environment, if
    `_straight_line` allows and every argument is closed.  None when the
    call ended by calling a host return continuation; otherwise the body
    `drain` goes on from, the whole call when the loop declines."""
    if not isinstance(lam, Lam) or not _chain_shape(lam):
        return Body(TOP, App(lam, args))
    env = {}
    for p, t in zip(lam.params, args):  # plain parameters, closed leaf values
        if p.packed or type(t) not in _CLOSED:
            break
        env[p.name] = t
    if len(env) != len(args) or len(lam.params) != len(args):  # else bind them all
        if not all(map(_closed, args)):
            return Body(TOP, App(lam, args))
        try:
            env = _bind(lam, _flatten(args))
        except _Unready:  # a splice that is not a tuple: the call waits
            return Body(TOP, App(lam, args))
    env[lam.stage] = TOP
    _count_step(session)
    body = lam.body
    while True:
        form = body.form
        if isinstance(form, PrimB):
            try:
                value = E.eval_prim(form.expr, env)
            except _Unready:
                return E.subst_body(body, env, session.names)
            if session.listener is not None:
                session.listener("prim", (form.expr, env))
            for out in form.outs:
                env[out] = value
            env[form.cont_stage] = TOP
            _count_step(session)
            body = form.rest
            continue
        if not isinstance(form.callee, Builtin):
            if (type(body.stage) is not Var or env[body.stage.name] is not TOP) \
                    and not stage_value(subst_stage(body.stage, env)):  # on a value
                return E.subst_body(body, env, session.names)
            callee = _value(session, env, form.callee)
            args = tuple([env.get(t.name, t) if type(t) is Var else _value(session, env, t)
                          for t in form.args])
            break
        *operands, k = form.args
        operands = [_value(session, env, t) for t in operands]
        call = _do_builtin(session, form.callee.name, _flatten([*operands, k]))
        if call is None:
            return E.subst_body(body, env, session.names)
        _count_step(session)
        args = call[1]  # closed: only a shell `_finish` hands back is not
        if form.callee.name == "finalize":
            args = (_finish(session, args[0]),)
            if not _closed(args[0]):
                return Body(TOP, App(_value(session, env, k), args))
        if not isinstance(k, Lam):
            callee = _value(session, env, k)
            break
        env.update(_bind(k, _flatten(args)))
        env[k.stage] = TOP
        _count_step(session)
        body = k.body
    if type(callee) is RetK:  # every value in the dict is closed
        items = _flatten(args)
        if Splice not in map(type, items):
            _return(session, callee, items)
            _count_step(session)
            return None
    return Body(TOP, App(callee, args))


def _wakes(body, env):
    """Whether `body` or a body below it may be on under `env`.  A name
    reads its value in `env` even below a binder that shadows it, where it
    is bottom; that can only overstate what is on, but for a `!`, so every
    operator stage counts as on."""
    todo = [body]
    while todo:
        body = todo.pop()
        free, active = body_info(body)
        if active:
            return True
        if free.isdisjoint(env):
            continue
        if type(body.stage) is StageOp or stage_value(subst_stage(body.stage, env)):
            return True
        todo.extend(E.child_bodies(body))
    return False


def _wakes_a_copy(terms, values):
    """Whether a term's value differs from it and holds an active body.  A
    name and a splice of a name are skipped, as their values come from the
    dict, which holds quiet values; any other copy has its pair read, a
    closed one too, though a closed term's copy is always quiet."""
    for t, v in zip(terms, values):
        if v is not t and type(t) is not Var \
                and (type(t) is not Splice or type(t.inner) is not Var) and term_info(v, set()):
            return True
    return False


def _renames(terms, env, avoid):
    """Whether the copy of `terms` under `env` renames a binder, which the
    call's copy does before anything runs in a lambda ahead of them."""
    dry = FreshNames()
    for term in terms:
        subst_term(term, env, dry, avoid)
    return dry.counter > 0


def _finish(session, shell):
    """The lambda `shell` with its body drained, its pack narrowed."""
    params, built = drain(session, shell.body, shell.params)
    return shell if built is shell.body else Lam(params, shell.stage, built)


def drain(session, body, params=()):
    """`body`, free in the symbolic `params`, drained as the `step` loop
    drains it: the parameters, the pack narrowed, and the residual, which
    holds an active body where that loop must go on from it.  A frame is
    `env`, the dict, and `body`; `avoid` is the free names of the dict's
    values, taken before the dict first changes.  `left` is the part of the
    frame not yet built, whose renames an error still owes; `call` starts
    the next frame.  `stack` holds what waits for the body being built: a
    primitive, with whether it waits to run, or a call, with its terms,
    their values so far, its frame and the lambda entered.  Once `stuck` (a
    body built may still run), nothing runs."""
    names, listener, stack, pm, stuck = session.names, session.listener, [], None, False
    pack = next((p.name for p in params if p.packed), None)
    env, avoid, left, call, terms = {}, None, body, None, None
    try:
        while True:
            built = None
            while True:  # down to the next body built whole
                if call is not None:  # a call of values: `(stage, callee, args)`
                    stage, callee, args = call
                    if type(callee) is Builtin:
                        done = _do_builtin(session, callee.name, _flatten(args))
                        if done is None:
                            break
                        _count_step(session)
                        call = (TOP, *done)
                        if callee.name == "finalize":  # post-order drains the shell first
                            call = (TOP, done[0], (_finish(session, done[1][0]),))
                            if not _closed(call[2][0]):
                                break
                        continue
                    items, lam, frag, stage_term = _flatten(args), callee, None, TOP
                    if type(callee) is FragVal:
                        if not items or type(items[0]) is Splice:
                            break
                        frag, lam = callee.fragment, callee.fragment.subject
                        stage_term, items = items[0], items[1:] + [TOP] * len(frag.slots)
                    if type(lam) is RetK:  # as `_try_execute` records it
                        if not {Splice, Var}.intersection(map(type, items)):
                            built = _return(session, lam, items)
                            _count_step(session)
                        break
                    if type(lam) is not Lam:
                        break
                    try:
                        frame = _bind(lam, items)
                    except _NeedsRefine as need:  # as `_refine_pack` narrows it
                        if need.name != pack or pm is not None:
                            break
                        if frag is not None:  # the names the call's wrappers take
                            wrapper_names(frag, names)
                        at = params.index(Param(pack, True))
                        fresh = tuple(Param(names.fresh("arg")) for _ in range(need.count))
                        params = params[:at] + fresh + params[at + 1:]
                        pm = {pack: TupleT(tuple(Var(p.name) for p in fresh))}
                        sub = lambda t: E.subst_term(t, pm, names)  # noqa: E731
                        call = (stage, sub(callee), tuple(map(sub, args)))
                        for entry in stack:  # all that waits is narrowed too
                            entry[0] = subst_stage(entry[0], pm)
                            if len(entry) == 5:
                                entry[1] = P.prim_subst(entry[1], pm, sub)
                            else:
                                entry[3][:] = map(sub, entry[3])
                                entry[4] = {**pm, **{k: sub(v) if _mentions(v, pack) else v
                                                     for k, v in entry[4].items()}}
                        _count_step(session)
                        continue
                    except _Unready:
                        break
                    except ArityMismatch:
                        if frag is not None:
                            wrapper_names(frag, names)
                        raise
                    if frag is not None:
                        items[len(items) - len(frag.slots):] = subject_call_args(frag, names, ())
                        frame = _bind(lam, items)
                    frame[lam.stage] = stage_term
                    env, avoid, body, left, call = frame, None, lam.body, lam.body, None
                    _count_step(session)
                    continue

                if terms is not None:  # a lambda among them whose body wakes goes first
                    for t in terms[len(values):]:
                        if type(t) is Lam and not stuck and not _untouched(lam_info(t), env) \
                                and _wakes(t.body, env) \
                                and not _renames(terms[len(values) + 1:], env, avoid):
                            avoid = mapped_free(env) if avoid is None else avoid
                            bound, inner = _rebind([*(p.name for p in t.params), t.stage],
                                                   env, avoid, names)
                            pack = None if pack in bound else pack
                            stack.append([stage, on, terms, values, env, avoid, (tuple(
                                Param(n, p.packed) for n, p in zip(bound, t.params)), bound[-1])])
                            env, body, left = dict(env) if inner is env else inner, t.body, t.body
                            terms = None
                            break
                        values.append(_value(session, env, t, avoid))
                    else:
                        # a value from the dict is quiet, and so is a term of
                        # the quiet callee's body that no substitution changed
                        if on and not stuck and not _wakes_a_copy(terms, values):
                            call, terms = (stage, values[0], tuple(values[1:])), None
                            continue
                        built, terms = Body(stage, App(values[0], tuple(values[1:]))), None
                        break
                    continue
                free, active = body.info or body_info(body)
                if not active and free.isdisjoint(env):  # the copy shares it
                    built = body
                    break
                form, stage = body.form, subst_stage(body.stage, env)
                on = stage_value(stage)
                if isinstance(form, PrimB) and all(map(_name_or_closed, form.expr.embedded_terms())):
                    avoid = mapped_free(env) if avoid is None else avoid
                    binders = (*form.outs, form.cont_stage)
                    if on and not _wakes(form.rest, env):
                        try:
                            value = E.eval_prim(form.expr, env)
                        except _Unready:
                            break
                        free = set()
                        if term_info(value, free) or not free <= avoid \
                                or not avoid.isdisjoint(binders):
                            break  # the call's copy, or this step's, would rename
                        if listener is not None:
                            listener("prim", (form.expr, env))
                        env.update(dict.fromkeys(form.outs, value))
                        env[form.cont_stage] = TOP
                        body = left = form.rest
                        _count_step(session)
                        continue
                    bound, inner = _rebind(binders, env, avoid, names)
                    expr = P.prim_subst(form.expr, env, lambda t: E.subst_term(t, env, names, avoid))
                    stack.append([stage, expr, tuple(bound[:-1]), bound[-1], on])
                    pack = None if pack in bound else pack
                    env, body, left = inner, form.rest, form.rest
                    continue
                if not isinstance(form, App):
                    break
                terms, values, left = (form.callee, *form.args), [], None
            if built is None:  # handed back: the `step` loop goes on from here
                built = Body(call[0], App(*call[1:])) if call else \
                    E.subst_body(body, env, names, avoid)
            body = left = call = None
            while stack and body is None and terms is None:  # up to what waits
                stuck = stuck or body_info(built)[1]
                entry = stack.pop()
                if len(entry) == 5:
                    stage, expr, outs, cont, deferred = entry
                    form = PrimB(expr, outs, cont, built)
                    ran = deferred and not stuck and _prim_step(session, form)
                    if ran:  # as `step` runs it, now that nothing below is on
                        _count_step(session)
                        env, avoid, body, left = {}, None, ran, ran
                    else:
                        built = Body(stage, form)
                    continue
                stage, on, terms, values, env, avoid, entered = entry
                values.append(Lam(*entered, built))
            if body is None and terms is None:
                break
    except LangError:  # the renames the call's copy would have made
        if left is not None:
            E.subst_body(left, env, names, avoid)
        raise
    return params, built
