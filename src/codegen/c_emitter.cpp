#include "codegen/c_emitter.hpp"

#include "base/error.hpp"
#include "base/strings.hpp"

namespace fcqss::cgen {

namespace {

class emitter {
public:
    explicit emitter(const generated_program& program) : program_(program) {}

    std::string run(const emitter_options& options)
    {
        line("/* Generated by fcqss: quasi-static schedule for '" + program_.name +
             "'. */");
        line("/* Hooks: action_<transition>() runs the computation; "
             "choice_<place>() returns the branch index. */");
        blank();
        if (options.emit_default_hooks) {
            line("#include <stdio.h>");
            blank();
        }

        declare_hooks(options);
        blank();

        for (const counter_decl& counter : program_.counters) {
            std::string decl = "static long " + counter.name + " = " +
                               std::to_string(counter.initial) + ";";
            if (counter.peak_bound >= 0) {
                decl += " /* peak " + std::to_string(counter.peak_bound) +
                        " under the schedule */";
            }
            line(decl);
        }
        blank();

        for (const task_code& task : program_.tasks) {
            line("/* ---- task " + task.name + " ---- */");
            for (const fragment& f : task.fragments) {
                line("void " + f.function_name + "(void)");
                line("{");
                ++indent_;
                emit_block(f.body);
                --indent_;
                line("}");
                blank();
            }
        }

        if (options.emit_default_hooks) {
            emit_demo_main(options);
        }
        return std::move(out_);
    }

private:
    void line(const std::string& text)
    {
        for (int i = 0; i < indent_; ++i) {
            out_ += "    ";
        }
        out_ += text;
        out_ += '\n';
    }

    void blank() { out_ += '\n'; }

    void declare_hooks(const emitter_options& options)
    {
        const char* storage = options.emit_default_hooks ? "static " : "extern ";
        for (const std::string& action : program_.action_names) {
            if (options.emit_default_hooks) {
                line("static void " + action + "(void) { printf(\"%s\\n\", \"" + action +
                     "\"); }");
            } else {
                line(std::string(storage) + "void " + action + "(void);");
            }
        }
        int choice_serial = 0;
        for (std::size_t p = 0; p < program_.choice_names.size(); ++p) {
            const std::string& choice = program_.choice_names[p];
            if (choice.empty()) {
                continue;
            }
            if (options.emit_default_hooks) {
                // Round-robin default so every branch gets exercised.
                line("static int " + choice + "_state = " +
                     std::to_string(choice_serial++) + ";");
                line("static int " + choice + "(void) { return " + choice +
                     "_state++ % " + std::to_string(program_.choice_arity[p]) + "; }");
            } else {
                line(std::string(storage) + "int " + choice + "(void);");
            }
        }
    }

    [[nodiscard]] std::string render_guard(const guard& g) const
    {
        if (g.tests.empty()) {
            return "1";
        }
        std::vector<std::string> terms;
        for (const counter_test& test : g.tests) {
            terms.push_back(counter_name(test.place) + " >= " +
                            std::to_string(test.at_least));
        }
        return join(terms, " && ");
    }

    [[nodiscard]] std::string counter_name(pn::place_id p) const
    {
        for (const counter_decl& counter : program_.counters) {
            if (counter.place == p) {
                return counter.name;
            }
        }
        throw internal_error("c_emitter: reference to undeclared counter");
    }

    void emit_block(const block& b)
    {
        for (const stmt& s : b) {
            emit_stmt(s);
        }
    }

    void emit_stmt(const stmt& s)
    {
        switch (s.k) {
        case stmt::kind::action:
            line(program_.action_names[s.action_target.index()] + "();");
            return;
        case stmt::kind::counter_add:
            if (s.delta >= 0) {
                line(counter_name(s.counter) + " += " + std::to_string(s.delta) + ";");
            } else {
                line(counter_name(s.counter) + " -= " + std::to_string(-s.delta) + ";");
            }
            return;
        case stmt::kind::if_guard:
            line("if (" + render_guard(s.g) + ") {");
            ++indent_;
            emit_block(s.body);
            --indent_;
            line("}");
            return;
        case stmt::kind::while_guard:
            line("while (" + render_guard(s.g) + ") {");
            ++indent_;
            emit_block(s.body);
            --indent_;
            line("}");
            return;
        case stmt::kind::choice: {
            const std::string& hook = program_.choice_names[s.choice_place.index()];
            // Query the control hook exactly once per decision.
            std::string var = "c";
            var += std::to_string(choice_serial_++);
            line("{");
            ++indent_;
            line("const int " + var + " = " + hook + "();");
            for (std::size_t i = 0; i < s.branches.size(); ++i) {
                if (i == 0) {
                    line("if (" + var + " == 0) {");
                } else if (i + 1 < s.branches.size()) {
                    line("} else if (" + var + " == " + std::to_string(i) + ") {");
                } else {
                    line("} else {");
                }
                ++indent_;
                emit_block(s.branches[i]);
                --indent_;
            }
            line("}");
            --indent_;
            line("}");
            return;
        }
        case stmt::kind::goto_label:
            line("goto " + s.text + ";");
            return;
        case stmt::kind::label:
            line(s.text + ":;");
            return;
        case stmt::kind::comment:
            line("/* " + s.text + " */");
            return;
        }
    }

    void emit_demo_main(const emitter_options& options)
    {
        line("int main(void)");
        line("{");
        ++indent_;
        line("for (int round = 0; round < " + std::to_string(options.demo_rounds) +
             "; ++round) {");
        ++indent_;
        for (const task_code& task : program_.tasks) {
            for (const fragment& f : task.fragments) {
                line(f.function_name + "();");
            }
        }
        --indent_;
        line("}");
        line("return 0;");
        --indent_;
        line("}");
    }

    const generated_program& program_;
    std::string out_;
    int indent_ = 0;
    int choice_serial_ = 0;
};

} // namespace

std::string emit_c(const generated_program& program, const emitter_options& options)
{
    return emitter(program).run(options);
}

int emitted_line_count(const generated_program& program, const emitter_options& options)
{
    return count_nonblank_lines(emit_c(program, options));
}

} // namespace fcqss::cgen
