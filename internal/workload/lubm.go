// Package workload provides deterministic, scalable synthetic stand-ins
// for the paper's three evaluation datasets — LUBM [5], YAGO2 [11] and BTC
// — together with the benchmark query sets (LQ1–LQ7, YQ1–YQ4, BQ1–BQ7)
// re-authored against the synthetic schemas while preserving each query's
// documented shape (star vs complex) and selectivity class, which are the
// two factors the paper's Tables I–III analyse.
package workload

import (
	"fmt"
	"math/rand"

	"gstored/internal/rdf"
)

// LUBM namespace layout follows the original benchmark: entities live
// under per-department hosts (http://www.DepartmentD.UniversityU.edu/...),
// which is exactly the URI hierarchy semantic hash partitioning exploits
// (Section VIII-D: semantic hash wins on LUBM).
const lubmOnt = "http://swat.cse.lehigh.edu/onto/univ-bench.owl#"

// LUBM ontology predicates, and the faculty classes the generator ranks
// professors by.
const (
	LubmWorksFor         = lubmOnt + "worksFor"
	LubmHeadOf           = lubmOnt + "headOf"
	LubmMemberOf         = lubmOnt + "memberOf"
	LubmSubOrganization  = lubmOnt + "subOrganizationOf"
	LubmAdvisor          = lubmOnt + "advisor"
	LubmTakesCourse      = lubmOnt + "takesCourse"
	LubmTeacherOf        = lubmOnt + "teacherOf"
	LubmPubAuthor        = lubmOnt + "publicationAuthor"
	LubmName             = lubmOnt + "name"
	LubmEmail            = lubmOnt + "emailAddress"
	LubmResearchInterest = lubmOnt + "researchInterest"
	LubmUGDegreeFrom     = lubmOnt + "undergraduateDegreeFrom"
	LubmDocDegreeFrom    = lubmOnt + "doctoralDegreeFrom"

	LubmFullProfessor = lubmOnt + "FullProfessor"
	LubmAssocProf     = lubmOnt + "AssociateProfessor"
	LubmAsstProf      = lubmOnt + "AssistantProfessor"
)

// LUBMConfig sizes the generator. With the defaults one university emits
// roughly 1,400 triples.
//
// Note on rdf:type: the generator intentionally emits no type triples.
// The benchmark queries of [1] that the paper uses are reasoning-free and
// type-pattern-free, and the paper's Table IV costs (~1e9 on 100M triples)
// are only reachable on a graph without type-to-class hub vertices — a
// single ub:UndergraduateStudent vertex with tens of millions of crossing
// in-edges would dominate E_F(V) by many orders of magnitude.
type LUBMConfig struct {
	Universities int
	Seed         int64
	// DeptsPerUniversity defaults to 3.
	DeptsPerUniversity int
}

func (c LUBMConfig) withDefaults() LUBMConfig {
	if c.Universities == 0 {
		c.Universities = 10
	}
	if c.DeptsPerUniversity == 0 {
		c.DeptsPerUniversity = 3
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// LubmUniversityURI returns the URI of university u.
func LubmUniversityURI(u int) string {
	return fmt.Sprintf("http://www.University%d.edu", u)
}

// LubmDeptURI returns the URI of department d of university u.
func LubmDeptURI(u, d int) string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu/Department%d", d, u, d)
}

func lubmEntity(u, d int, name string) string {
	return fmt.Sprintf("http://www.Department%d.University%d.edu/%s", d, u, name)
}

// LUBM generates a LUBM-style university graph.
func LUBM(cfg LUBMConfig) *rdf.Graph {
	cfg = cfg.withDefaults()
	r := rand.New(rand.NewSource(cfg.Seed))
	g := rdf.NewGraph()
	addT := func(s string, p string, o rdf.Term) {
		g.Add(rdf.NewIRI(s), rdf.NewIRI(p), o)
	}
	addI := func(s, p, o string) { addT(s, p, rdf.NewIRI(o)) }

	for u := 0; u < cfg.Universities; u++ {
		univ := LubmUniversityURI(u)
		addT(univ, LubmName, rdf.NewLiteral(fmt.Sprintf("University%d", u)))
		for d := 0; d < cfg.DeptsPerUniversity; d++ {
			dept := LubmDeptURI(u, d)
			addI(dept, LubmSubOrganization, univ)

			// Faculty: 3 full (index 0 is head), 3 associate, 2 assistant.
			profTypes := []struct {
				class string
				count int
				tag   string
			}{
				{LubmFullProfessor, 3, "FullProfessor"},
				{LubmAssocProf, 3, "AssociateProfessor"},
				{LubmAsstProf, 2, "AssistantProfessor"},
			}
			var faculty []string
			var courses []string
			for ci := 0; ci < 10; ci++ {
				c := lubmEntity(u, d, fmt.Sprintf("Course%d", ci))
				addT(c, LubmName, rdf.NewLiteral(fmt.Sprintf("Course%d-%d-%d", u, d, ci)))
				courses = append(courses, c)
			}
			course := 0
			for _, pt := range profTypes {
				for i := 0; i < pt.count; i++ {
					p := lubmEntity(u, d, fmt.Sprintf("%s%d", pt.tag, i))
					addI(p, LubmWorksFor, dept)
					addT(p, LubmName, rdf.NewLiteral(fmt.Sprintf("%s%d@Department%d.University%d", pt.tag, i, d, u)))
					addT(p, LubmEmail, rdf.NewLiteral(fmt.Sprintf("%s%d@dept%d.univ%d.edu", pt.tag, i, d, u)))
					addT(p, LubmResearchInterest, rdf.NewLiteral(fmt.Sprintf("Research%d", r.Intn(20))))
					// Full professors earned their doctorate elsewhere —
					// never at their own university (LQ3 relies on this).
					// Only full professors carry the edge so that
					// cross-university edges stay a small fraction of the
					// graph, as in real LUBM.
					if pt.class == LubmFullProfessor && cfg.Universities > 1 {
						other := (u + 1 + r.Intn(maxInt(cfg.Universities-1, 1))) % cfg.Universities
						if other == u {
							other = (u + 1) % cfg.Universities
						}
						addI(p, LubmDocDegreeFrom, LubmUniversityURI(other))
					}
					addI(p, LubmTeacherOf, courses[course%len(courses)])
					course++
					if pt.class == LubmFullProfessor && i == 0 {
						addI(p, LubmHeadOf, dept)
					}
					faculty = append(faculty, p)
					// One publication per professor.
					pub := lubmEntity(u, d, fmt.Sprintf("Publication%s%d", pt.tag, i))
					addI(pub, LubmPubAuthor, p)
				}
			}
			// Graduate students: advisor in the department; half take one
			// of their advisor's courses (LQ1's triangle exists because of
			// this), and their undergraduate degree is from another
			// university (LQ6 crosses universities through this edge).
			for i := 0; i < 8; i++ {
				s := lubmEntity(u, d, fmt.Sprintf("GraduateStudent%d", i))
				addI(s, LubmMemberOf, dept)
				addT(s, LubmName, rdf.NewLiteral(fmt.Sprintf("GraduateStudent%d-%d-%d", u, d, i)))
				adv := faculty[r.Intn(len(faculty))]
				addI(s, LubmAdvisor, adv)
				if i%2 == 0 {
					// One of the advisor's courses: teacherOf was assigned
					// round-robin, so recover a course the advisor teaches.
					addI(s, LubmTakesCourse, advisorCourse(adv, faculty, courses))
				} else {
					addI(s, LubmTakesCourse, courses[r.Intn(len(courses))])
				}
				if cfg.Universities > 1 && i%2 == 0 {
					ug := (u + 1 + i) % cfg.Universities
					if ug == u {
						ug = (u + 1) % cfg.Universities
					}
					addI(s, LubmUGDegreeFrom, LubmUniversityURI(ug))
				}
			}
			// Undergraduates: high-volume star fodder (LQ2, LQ7).
			for i := 0; i < 20; i++ {
				s := lubmEntity(u, d, fmt.Sprintf("UndergraduateStudent%d", i))
				addI(s, LubmMemberOf, dept)
				addT(s, LubmName, rdf.NewLiteral(fmt.Sprintf("UndergraduateStudent%d-%d-%d", u, d, i)))
				addI(s, LubmTakesCourse, courses[r.Intn(len(courses))])
				addI(s, LubmTakesCourse, courses[r.Intn(len(courses))])
			}
		}
	}
	return g
}

// advisorCourse returns the course its advisor teaches (faculty i teaches
// courses[i mod len]); falls back to the first course.
func advisorCourse(adv string, faculty, courses []string) string {
	for i, f := range faculty {
		if f == adv {
			return courses[i%len(courses)]
		}
	}
	return courses[0]
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// LubmQueries returns the LQ1–LQ7 benchmark queries as SPARQL text against
// the synthetic schema, preserving the shape/selectivity classes of the
// queries of [1] used in the paper:
//
//	LQ1 complex unselective (advisor/takesCourse/teacherOf triangle)
//	LQ2 star    unselective (all graduate students and departments)
//	LQ3 complex selective, provably empty (doctorate from own university)
//	LQ4 star    selective (one department's faculty)
//	LQ5 star    selective (full professors of one department)
//	LQ6 complex selective (cross-university degree chain)
//	LQ7 complex unselective (course co-enrollment join)
func LubmQueries() []BenchQuery {
	d0u0 := LubmDeptURI(0, 0)
	u0 := LubmUniversityURI(0)
	u1 := LubmUniversityURI(1)
	return []BenchQuery{
		{
			Name: "LQ1", Shape: ShapeComplex, Selective: false,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?y ?c WHERE { ?y ub:advisor ?x . ?y ub:takesCourse ?c . ?x ub:teacherOf ?c }`,
		},
		{
			Name: "LQ2", Shape: ShapeStar, Selective: false,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?y ?c WHERE { ?x ub:memberOf ?y . ?x ub:takesCourse ?c . ?x ub:name ?n }`,
		},
		{
			Name: "LQ3", Shape: ShapeComplex, Selective: true,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?d WHERE { ?x ub:doctoralDegreeFrom <` + u0 + `> . ?x ub:worksFor ?d . ?d ub:subOrganizationOf <` + u0 + `> }`,
		},
		{
			Name: "LQ4", Shape: ShapeStar, Selective: true,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?n ?e WHERE { ?x ub:worksFor <` + d0u0 + `> . ?x ub:name ?n . ?x ub:emailAddress ?e }`,
		},
		{
			Name: "LQ5", Shape: ShapeStar, Selective: true,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?i WHERE { ?x ub:headOf <` + d0u0 + `> . ?x ub:worksFor <` + d0u0 + `> . ?x ub:researchInterest ?i }`,
		},
		{
			Name: "LQ6", Shape: ShapeComplex, Selective: true,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?d WHERE { ?x ub:undergraduateDegreeFrom <` + u0 + `> . ?x ub:memberOf ?d . ?d ub:subOrganizationOf <` + u1 + `> }`,
		},
		{
			Name: "LQ7", Shape: ShapeComplex, Selective: false,
			SPARQL: `PREFIX ub: <` + lubmOnt + `>
SELECT ?x ?y ?c WHERE { ?x ub:teacherOf ?c . ?y ub:takesCourse ?c . ?y ub:memberOf ?d }`,
		},
	}
}
