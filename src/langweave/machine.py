"""The environment machine: calls run in dicts of names, not copied bodies.

`run_chain`, which `evaluator.apply_value` tries first, is a loop in the
manner of the CEK machine: it binds each name in one dict instead of
copying the body.  It takes a closed, quiet lambda applied to closed
values whose body is a straight line of links, each staged on the stage
the one before it binds (the first on the lambda's own): a primitive over
names and closed terms, or a call of `build`, `merge`, `finalize`,
`newEnv` or `print` whose last argument is a continuation lambda with
plain parameters (it binds into the same dict) or a name; a call of a
name ends the line.  An operand or last argument may also splice a name,
which reads the name's tuple from the dict.  A lambda among a builtin's
operands (a build subject) is copied with the dict substituted, and no
stage in it may name one of its free names: such a body would turn on
when the name is bound, and post-order would run it first.  The shape is
decided once per lambda, at its first call, and kept with the lambda's
cached pair, where each later call reads it.  `_bind` binds parameters in
the dict, and `eval_prim` and the trace formatter read a primitive's
names from it; builtins run through `_do_builtin` on lists built by
`_flatten`; a last call reads its names from the dict, and one of the host
return continuation on closed values is recorded as `_try_execute` records
it.  The `prim` and `print` events and the step count are `run`'s, and no
binder is renamed, since every value in the dict is closed.

The shell `finalize` returns holds the one active body, and `_finish`
drains it the same way, in the manner of normalization by evaluation:
each call of a lambda value (a slot wrapper, a fragment subject with its
wrappers, a builtin's continuation) binds its parameters in a fresh dict,
whose values may be symbolic (a function-time stage, a residual output,
the shell's pack), and goes on at its body.  Only a body that stays in the
residual is built, by substituting the dict into it alone, with the
binders renamed that the call's copy would rename; a primitive that is on
while a body below it is on too, which post-order runs first, is built
the same way and runs once the rest is built.  The pack is narrowed once,
when a splice of it must fill fixed parameters.  The renames, fresh names,
steps and events are `run`'s, in its order.  What either loop cannot
finish in post-order (a symbolic operand, an `if`, a callee other than a
lambda or a fragment, a value holding an active body) is substituted from
the same dict, which is the tree `run` would have reached, and `run` goes
on from it.

The machine calls `eval_prim`, `subst_body`, `subst_term` and
`child_bodies` through the evaluator module (`E.eval_prim`, ...), so that
a tracer that replaces one there sees the machine's calls too.  The
evaluator imports this module last, once its own names are defined.
"""

from . import evaluator as E, prims as P
from .errors import ArityMismatch, LangError
from .evaluator import (_NeedsRefine, _Unready, _bind, _count_step, _do_builtin,
                        _flatten, _prim_step, _return)
from .fragments import subject_call_args
from .terms import (TOP, App, Body, Builtin, FragVal, Lam, Param, PrimB, RetK,
                    Splice, StageOp, TupleT, Var, _CLOSED, _rebind,
                    body_info, lam_info, mapped_free, postorder, stage_value,
                    subst_stage, term_info)


def _closed(term):
    """No free name and no active body: binding it can capture nothing, and
    nothing in it runs before the body it is passed to."""
    if type(term) in _CLOSED:
        return True
    names = set()
    return not term_info(term, names) and not names


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


_CHAIN_BUILTINS = frozenset({"build", "merge", "finalize", "newEnv", "print"})


def _straight_line(lam):
    """Whether the environment loop may run a call of `lam`: it is closed
    and quiet, and its body is a line of links, each staged on the stage
    the link before it binds.  A link is a primitive over names and closed
    terms, or a chain builtin whose operands are `_operand`s or lambdas with
    no stage naming one of their free names, and whose last argument is a
    continuation lambda with plain parameters or a name; a call of a name
    on `_operand`s ends the line."""
    free, active = lam_info(lam)
    if free or active:
        return False
    body, stage = lam.body, lam.stage
    while type(body.stage) is Var and body.stage.name == stage:
        form = body.form
        if isinstance(form, PrimB):
            if not all(map(_name_or_closed, form.expr.embedded_terms())):
                return False
            body, stage = form.rest, form.cont_stage
            continue
        if not isinstance(form, App):
            return False
        if isinstance(form.callee, Var):
            return all(map(_operand, form.args))
        if not isinstance(form.callee, Builtin) or form.callee.name not in _CHAIN_BUILTINS \
                or not form.args:
            return False
        *operands, k = form.args
        if not all(_operand(t) or isinstance(t, Lam) and _stays_off(t)
                   for t in operands):
            return False
        if isinstance(k, Var):
            return True
        if not isinstance(k, Lam) or any(p.packed for p in k.params):
            return False
        body, stage = k.body, k.stage
    return False


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
    if kind is Lam:
        free, active = lam_info(term)
        if not active and free.isdisjoint(env):
            return term
    return term if kind in _CLOSED else E.subst_term(term, env, session.names, avoid)


def run_chain(session, lam, args):
    """Run the call of `lam` on `args` in one environment, if
    `_straight_line` allows and every argument is closed.  None when the
    call ended by calling a host return continuation; otherwise the body
    `run` must drain for the rest, which is the whole call when the loop
    declines."""
    if not isinstance(lam, Lam) or not _chain_shape(lam) or not all(map(_closed, args)):
        return Body(TOP, App(lam, args))
    try:
        env = _bind(lam, _flatten(args))
    except _Unready:  # a splice that is not a tuple: `run` waits
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


def _finish(session, shell):
    """The `finalize` shell `shell` drained as `run` would drain it (see
    the module notes): a lambda with the residual as its body, which holds
    an active body where `run` must go on from it.

    A frame is `env`, the dict, and `body`; `avoid` is the free names of
    the dict's values, which the call's copy renames binders for, taken
    before the dict first changes.  `left` is the part of the frame not yet
    built, whose renames an error still owes; `call` is a call of values
    waiting to start the next frame.  `made` keeps the bodies built, from
    the root down, each with whether it waits to run; `pm` narrows the pack,
    into the first `refined` of them too."""
    names, listener = session.names, session.listener
    pack, params, made, pm, refined = shell.params[0].name, shell.params, [], None, 0
    env, avoid, body, left, call = {}, None, shell.body, shell.body, None
    try:
        while True:
            if call is not None:  # a call of values: `(stage, callee, args)`
                stage, callee, args = call
                if type(callee) is Builtin:
                    if callee.name not in _CHAIN_BUILTINS or callee.name == "finalize":
                        break
                    done = _do_builtin(session, callee.name, _flatten(args))
                    if done is None:
                        break
                    _count_step(session)
                    call = (TOP, *done)
                    continue
                items, lam, frag, stage_term = _flatten(args), callee, None, TOP
                if type(callee) is FragVal:
                    if not items or type(items[0]) is Splice:
                        break
                    frag, lam = callee.fragment, callee.fragment.subject
                    stage_term, items = items[0], items[1:] + [TOP] * len(frag.slots)
                if type(lam) is not Lam:
                    break
                try:
                    frame = _bind(lam, items)
                except _NeedsRefine as need:  # as `_refine_pack` narrows it
                    if need.name != pack or pm is not None:
                        break
                    if frag is not None:
                        subject_call_args(frag, names, ())
                    params = tuple(Param(names.fresh("arg")) for _ in range(need.count))
                    pm = {pack: TupleT(tuple(Var(p.name) for p in params))}
                    refined = len(made)
                    call = (stage, E.subst_term(callee, pm, names),
                            tuple(E.subst_term(t, pm, names) for t in args))
                    _count_step(session)
                    continue
                except _Unready:
                    break
                except ArityMismatch:
                    if frag is not None:
                        subject_call_args(frag, names, ())
                    raise
                if frag is not None:
                    items[len(items) - len(frag.slots):] = subject_call_args(frag, names, ())
                    frame = _bind(lam, items)
                frame[lam.stage] = stage_term
                env, avoid, body, left, call = frame, None, lam.body, lam.body, None
                _count_step(session)
                continue

            form, stage = body.form, subst_stage(body.stage, env)
            on = stage_value(stage)
            if isinstance(form, PrimB) and all(map(_name_or_closed, form.expr.embedded_terms())):
                if avoid is None:
                    avoid = mapped_free(env)
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
                made.append((stage, expr, tuple(bound[:-1]), bound[-1], on))
                env, body = inner, form.rest
                left = body
                continue
            if not on or not isinstance(form, App):
                break
            terms = (form.callee, *form.args)
            values = [_value(session, env, t, avoid) for t in terms]
            call, left = (stage, values[0], tuple(values[1:])), None
            # a value from the dict is quiet, and so is a term of the quiet
            # callee's body that no substitution changed
            if any(v is not t and not _operand(t) and term_info(v, set())
                   for t, v in zip(terms, values)):
                break
    except LangError:
        if left is not None:  # the renames the call's copy would have made
            E.subst_body(left, env, names, avoid)
        raise
    tail = Body(call[0], App(*call[1:])) if call else E.subst_body(body, env, names, avoid)
    rest, stuck = tail, body_info(tail)[1]
    for at in range(len(made) - 1, -1, -1):
        stage, expr, outs, cont, deferred = made[at]
        if at < refined:
            stage = subst_stage(stage, pm)
            expr = P.prim_subst(expr, pm, lambda t: E.subst_term(t, pm, names))
        form = PrimB(expr, outs, cont, rest)
        ran = deferred and not stuck and _prim_step(session, form)
        if ran:  # as `run` runs it, now that nothing below is on
            _count_step(session)
            rest, stuck = ran, body_info(ran)[1]
        else:
            rest = Body(stage, form)
            body_info(rest)
    return Lam(params, shell.stage, rest)
