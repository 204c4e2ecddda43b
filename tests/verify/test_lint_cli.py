"""``bte lint`` end-to-end: script linting, exit codes, error rendering."""

import json
import textwrap

import pytest

from repro.cli import _render_error, bte_main, main
from repro.util.errors import MeshError, ParseError
from repro.verify import lint_script


CLEAN_SCRIPT = textwrap.dedent("""\
    import numpy as np
    from repro.dsl.problem import Problem
    from repro.fvm.boundary import BCKind
    from repro.mesh.grid import structured_grid

    p = Problem("lintable")
    p.set_domain(2)
    p.set_steps(1e-4, 4)
    p.set_mesh(structured_grid((6, 6)))
    p.add_variable("u")
    p.add_coefficient("D", 0.5)
    for r in (1, 2, 3, 4):
        p.add_boundary("u", r, BCKind.DIRICHLET, 0.0)
    p.set_initial("u", 0.0)
    p.set_conservation_form("u", "surface(diffuse(D, u))")
    p.solve()
""")


def write_script(tmp_path, body, name="script.py"):
    path = tmp_path / name
    path.write_text(body)
    return str(path)


class TestLintScript:
    def test_clean_script_passes(self, tmp_path):
        res = lint_script(write_script(tmp_path, CLEAN_SCRIPT))
        assert res.ok, res.render_text()
        assert res.problems_checked == 1

    def test_solve_is_intercepted_not_run(self, tmp_path):
        # lint must stop at the first solve(), not execute the time loop
        script = CLEAN_SCRIPT + "\nraise SystemExit('past solve!')\n"
        res = lint_script(write_script(tmp_path, script))
        assert res.ok, res.render_text()

    def test_unknown_symbol_is_reported(self, tmp_path):
        bad = CLEAN_SCRIPT.replace('"surface(diffuse(D, u))"',
                                   '"surface(diffuse(D, u)) + qqq"')
        res = lint_script(write_script(tmp_path, bad))
        assert not res.ok
        assert "RPR101" in res.report.codes()

    def test_the_callers_problem_is_neither_linted_nor_lost(self, tmp_path):
        """A script runs in a scope of its own: with no problem of its own
        there is nothing to lint (not the caller's), and the problem a
        script starts stays with the script."""
        from repro.dsl import api
        from repro.util.context import scope

        with scope(problem=None):
            callers = api.init_problem("callers_problem")
            res = lint_script(write_script(tmp_path, "x = 1\n"))
            assert res.problems_checked == 0
            assert "nothing to lint" in res.render_text()
            assert api.current_problem() is callers
            script = "import repro.dsl as finch\nfinch.init_problem('scripts')\n"
            res = lint_script(write_script(tmp_path, script, name="starts.py"))
            assert res.problems_checked == 1
            assert api.current_problem() is callers

    def test_crashing_script_reports_rpr000(self, tmp_path):
        res = lint_script(write_script(tmp_path, "1 / 0\n"))
        assert not res.ok
        assert "RPR000" in res.report.codes()

    def test_typed_error_keeps_its_code(self, tmp_path):
        script = ("from repro.util.errors import MeshError\n"
                  "raise MeshError('truncated', code='RPR501')\n")
        res = lint_script(write_script(tmp_path, script))
        assert not res.ok
        assert "RPR501" in res.report.codes()


class TestCliExitCodes:
    def test_clean_script_exits_zero(self, tmp_path, capsys):
        path = write_script(tmp_path, CLEAN_SCRIPT)
        assert main(["lint", path]) == 0
        assert "OK" in capsys.readouterr().out

    def test_bad_script_exits_one(self, tmp_path, capsys):
        bad = CLEAN_SCRIPT.replace('"surface(diffuse(D, u))"',
                                   '"surface(wizardry(D, u))"')
        path = write_script(tmp_path, bad)
        assert main(["lint", path]) == 1
        captured = capsys.readouterr()
        assert "RPR102" in captured.out
        assert "failed lint" in captured.err

    def test_no_scripts_exits_two(self, capsys):
        assert main(["lint"]) == 2
        assert "no scripts" in capsys.readouterr().err

    def test_missing_script_exits_two(self, capsys):
        assert main(["lint", "/nonexistent/x.py"]) == 2
        assert "no such script" in capsys.readouterr().err

    def test_codes_catalogue(self, capsys):
        assert main(["lint", "--codes"]) == 0
        out = capsys.readouterr().out
        assert "RPR301" in out and "RPR121" in out

    def test_json_report(self, tmp_path, capsys):
        path = write_script(tmp_path, CLEAN_SCRIPT)
        out = tmp_path / "lint.json"
        assert main(["lint", path, "--json", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["schema"] == "repro.lint/1"
        assert doc["scripts"][0]["ok"] is True

    def test_bte_alias_passes_lint_through(self, capsys):
        assert bte_main(["lint", "--codes"]) == 0
        assert "RPR301" in capsys.readouterr().out

    @pytest.mark.parametrize("old, new, code", [
        ("p.set_domain(2)\n", 'p.set_domain(2)\np.set_solver_type("FEM")\n', "RPR001"),
        ("import numpy as np\n",
         "import numpy as np\nimport repro.dsl as finch\n"
         'finch.init_problem("old")\nfinch.weak_form("u", "u*v")\n', "RPR001"),
        ("BCKind.DIRICHLET, 0.0)", '"bogus")', "RPR124"),
        ("BCKind.DIRICHLET, 0.0)", '"neumann", 1.0)', "RPR124"),
    ], ids=["solver_type(FEM)", "weak_form", "bogus-kind", "neumann"])
    def test_unsupported_declarations_lint_to_their_code(self, tmp_path, capsys,
                                                         old, new, code):
        path = write_script(tmp_path, CLEAN_SCRIPT.replace(old, new))
        assert bte_main(["lint", path]) == 1
        out = capsys.readouterr().out
        assert code in out and "RPR000" not in out
        assert "Traceback" not in out


class TestErrorRendering:
    def test_one_line_format(self):
        text = _render_error(MeshError("file truncated", code="RPR502"))
        assert text == "error RPR502: file truncated"

    def test_caret_block_preserved(self):
        err = ParseError("unexpected token", source="a + * b", position=4)
        text = _render_error(err)
        lines = text.splitlines()
        assert lines[0].startswith("error RPR100: unexpected token")
        assert "^" in lines[-1]

    def test_cli_renders_repro_error_cleanly(self, capsys):
        # a ReproError escaping a command becomes a one-line stderr
        # diagnostic with a nonzero exit, not a traceback
        rc = main(["pipeline", "u + * q"])
        captured = capsys.readouterr()
        assert rc == 1
        assert "error RPR" in captured.err
        assert "re-run with -v" in captured.err

    def test_verbose_reraises_for_traceback(self):
        from repro.util.errors import ReproError

        with pytest.raises(ReproError):
            main(["-v", "pipeline", "u + * q"])
