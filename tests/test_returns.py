"""An early `return` from each kind of frame ends that body only.

Expected steps and traces are those of the interpreter in which `return`
was a Python exception caught by each frame kind; the interpreter that
returns by value must reproduce them.
"""

from conftest import run_src

_NESTED = """class Main {
  def find(n) {
    if (n < 0) {
      return -1;
    } else if (n > 2) {
      var i = 0;
      while (true) {
        i = i + 1;
        if (i == n) {
          return i * 10;
        }
      }
    } else {
      return 0;
    }
    print("not reached");
  }
  def main() {
    print(this.find(4));
    print("done");
  }
}
"""

_AFTER_FIND = """aspect A {
  after(): execution(Main.find) {
    print("after find");
  }
}
"""


def test_return_from_while_in_else_if_arm():
    # the value leaves the loop, the arm and the method; the execution join
    # point's after-advice still runs
    res = run_src(_NESTED, _AFTER_FIND)
    assert res.status == "completed"
    assert res.output == ["after find", "40", "done"]
    assert res.steps == 24
    assert res.render_trace() == (
        "step=2 t0 jp method_execution Main.main/0 @ base.ml0:18\n"
        "step=4 t0 jp method_call Main.find/1 @ base.ml0:19\n"
        "step=5 t0 jp method_execution Main.find/1 @ base.ml0:2\n"
        "step=22 t0 advice_enter A#0 at method_execution Main.find/1\n"
        "step=23 t0 print after find\n"
        "step=23 t0 advice_exit A#0 at method_execution Main.find/1\n"
        "step=23 t0 print 40\n"
        "step=24 t0 print done\n"
        "step=24 t0 finish\n"
    )


_CTOR = """class P {
  var x = 1;
  constructor(v) {
    this.x = v;
    this.probe();
    if (v > 0) {
      return;
    }
    this.x = 99;
  }
  def probe() {
  }
}
class Main {
  def make(v) {
    return new P(v);
  }
  def main() {
    var p = this.make(5);
    print(p.x);
    p.probe();
    print(this.make(0).x);
  }
}
"""

_CTOR_ADVICE = """aspect A {
  after(): execution(Main.make) {
    print("made");
  }
  before(): call(P.probe) && cflow(within(P)) {
    print("probe within P");
  }
}
"""


def test_return_in_constructor():
    # `return;` skips the rest of the constructor, `new` still yields the
    # object, and the initialization join point still leaves the cflow
    # stack: `p.probe()` in main is not within P's initialization
    res = run_src(_CTOR, _CTOR_ADVICE)
    assert res.status == "completed"
    assert res.output == ["probe within P", "made", "5", "probe within P", "made", "99"]
    assert res.steps == 39
    assert res.count_jp("initialization P") == 2
    trace = res.render_trace()
    assert "step=8 t0 jp initialization P @ base.ml0:3\n" in trace
    assert "step=28 t0 jp initialization P @ base.ml0:3\n" in trace
    assert "step=37 t0 jp field_set P.x @ base.ml0:9\n" in trace  # only when v is 0
    assert "step=21 t0 jp method_call ?.probe/0 @ base.ml0:21\n" in trace


_WORK = """class Main {
  def work() {
    print("work");
  }
  def main() {
    this.work();
  }
}
"""

_TWO_BEFORE = """aspect A {
  before(): execution(Main.work) {
    print("first");
    if (true) {
      return;
    }
    print("not reached");
  }
  before(): execution(Main.work) {
    print("second");
  }
}
"""


def test_return_in_before_advice():
    # the advice body ends, its advice_exit is emitted, and the next advice
    # at the same join point and the method itself still run
    res = run_src(_WORK, _TWO_BEFORE)
    assert res.status == "completed"
    assert res.steps == 10
    assert res.render_trace() == (
        "step=2 t0 jp method_execution Main.main/0 @ base.ml0:5\n"
        "step=4 t0 jp method_call Main.work/0 @ base.ml0:6\n"
        "step=5 t0 jp method_execution Main.work/0 @ base.ml0:2\n"
        "step=5 t0 advice_enter A#0 at method_execution Main.work/0\n"
        "step=6 t0 print first\n"
        "step=8 t0 advice_exit A#0 at method_execution Main.work/0\n"
        "step=8 t0 advice_enter A#1 at method_execution Main.work/0\n"
        "step=9 t0 print second\n"
        "step=9 t0 advice_exit A#1 at method_execution Main.work/0\n"
        "step=10 t0 print work\n"
        "step=10 t0 finish\n"
    )


_MONITOR = """class Main {
  var m = null;
  def grab() {
    monitor_acquire(this.m);
    while (true) {
      return 7;
    }
  }
  def main() {
    this.m = make_monitor();
    print(this.grab());
    monitor_acquire(this.m);
    print("again");
  }
}
"""


def test_return_from_loop_releases_frame_monitor():
    # grab's frame releases the monitor it acquired when it returns, so the
    # caller's own acquire does not deadlock on it
    res = run_src(_MONITOR)
    assert res.status == "completed"
    assert res.output == ["7", "again"]
    assert res.steps == 16
