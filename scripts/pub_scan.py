#!/usr/bin/env python3
"""Which `pub` names in the library crates does nothing outside the crate
name? Run from the repository root:

    python3 scripts/pub_scan.py

"Outside" is another crate's src/, the root package, every integration
test, example and binary (the `harness`), `benchmark/`, and doctests.
Prints each `pub` declaration, field and re-export no outside code names
(a candidate for `pub(crate)`), then the counts. A clean tree prints the
counts only and exits 0; a tree with a candidate exits 1. See
EXPERIMENTS.md "Narrow pub".
"""
import glob, os, re, sys

WORD = re.compile(r'\b[A-Za-z_]\w*\b')
LINK = re.compile(r'\[`?([\w:]+)(?:\(\))?`?\]')
DECL = re.compile(r'^\s*pub\s+(?:(?:const|async|unsafe)\s+)*'
                  r'(?:fn|struct|enum|trait|type|const|static|mod|union)\s+(\w+)')
FIELD = re.compile(r'^\s*pub\s+(\w+)\s*:')
REEXPORT = re.compile(r'^\s*pub\s+use\s+[^;]*;', re.M)
# Kept `pub` on purpose (EXPERIMENTS.md "Narrow pub", the keep list): the
# SipHash suite and the batch audit, which go whole in their own changes;
# fields read only through a `Debug` print that a command or a pin reads;
# and types that appear in public signatures (`Synthesis`: the return
# type of `sched::synthesize`, which the benchmark calls).
KEEP_FILES = {'crates/crypto/src/siphash.rs'}
KEEP = {'siphash', 'SipKey', 'SipState', 'verify_batch_all',
        'last_logical', 'flight_total', 'flight_tail',
        'BaselineError', 'CampaignError', 'CampaignOutcome', 'CellError',
        'CorpusEntry', 'FuzzOutcome', 'ReplayError',
        'ShrinkOutcome', 'Violation', 'SinkVerdict', 'NodeSpec',
        'PlanError', 'TopologyError', 'SendError', 'PlacementError',
        'QualityReport', 'SchedError', 'Synthesis', 'WorkloadError', 'DropTotals',
        'PanicReport', 'RuntimeEvent'}

def rs(d):
    return glob.glob(d + '/**/*.rs', recursive=True)

def names(paths, doctests_only=False):
    """Identifiers in code, intra-doc link targets and doctest code in
    comments; a name that prose merely mentions does not count."""
    w = set()
    for p in paths:
        fence = False
        for line in open(p).read().split('\n'):
            code, sep, comment = line.partition('//')
            doc = comment.lstrip('/!').strip() if sep else ''
            if doc.startswith('```'):
                fence = not fence and doc in ('```', '```rust')
            elif fence:
                w |= set(WORD.findall(doc))
            if not doctests_only:
                w |= set(WORD.findall(code))
                for target in LINK.findall(comment) if sep else ():
                    w |= set(WORD.findall(target))
    return w

crates = sorted(d for d in glob.glob('crates/*') if os.path.isdir(d + '/src'))
lib = {c: [p for p in rs(c + '/src') if '/src/bin/' not in p] for c in crates}
outside_all = sum((rs(d) for d in ['src', 'tests', 'examples', 'benchmark/src',
                                   'benchmark/tests']), [])
for c in crates:
    outside_all += rs(c + '/tests') + rs(c + '/examples') + rs(c + '/src/bin')
common, inside = names(outside_all), {c: names(lib[c]) for c in crates}
common |= names(sum(lib.values(), []), doctests_only=True)

decls = unused = kept = candidates = 0
for c in crates:
    outside = common.union(*(inside[o] for o in crates if o != c))
    for p in lib[c]:
        text = open(p).read()
        for i, line in enumerate(text.split('\n'), 1):
            m = DECL.match(line) or FIELD.match(line)
            if m:
                decls += 1
                if m.group(1) not in outside:
                    unused += 1
                    if p in KEEP_FILES or m.group(1) in KEEP:
                        kept += 1
                    else:
                        candidates += 1
                        print(f'{p}:{i}: {m.group(1)}')
        for m in REEXPORT.finditer(text):
            for n in WORD.findall(m.group(0).split('::', 1)[1]):
                if n not in outside and n not in KEEP:
                    candidates += 1
                    print(f'{p}: re-export {n}')
print(f'{len(crates)} crates, {decls} pub declarations, {unused} named nowhere '
      f'outside their crate, {kept} of those on the keep list')
sys.exit(1 if candidates else 0)
